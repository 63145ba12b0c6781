"""Shared graph-building helpers importable from any test module."""

from __future__ import annotations

import numpy as np

from repro.graph.builder import GraphBuilder
from repro.graph.csr import Graph
from repro.graph.generators import (
    barabasi_albert,
    paper_example_graph,
    path_graph,
    star_graph,
)


def random_connected_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """A random connected graph: random spanning tree + extra edges.

    The tree guarantees connectivity; the extra edges add cycles.  Used
    by unit tests and hypothesis strategies alike.
    """
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(num_vertices=n)
    for v in range(1, n):
        builder.add_edge(v, int(rng.integers(0, v)))
    for _ in range(extra_edges):
        u = int(rng.integers(0, n))
        w = int(rng.integers(0, n))
        if u != w:
            builder.add_edge(u, w)
    return builder.build()


def random_graph(n: int, num_edges: int, seed: int) -> Graph:
    """Random graph, possibly disconnected (no spanning tree guarantee)."""
    rng = np.random.default_rng(seed)
    edges = [
        (int(rng.integers(0, n)), int(rng.integers(0, n)))
        for _ in range(num_edges)
    ]
    edges = [(u, v) for u, v in edges if u != v]
    return Graph.from_edges(edges, num_vertices=n)


def graph_corpus() -> "list[Graph]":
    """~50 graphs: random (connected and disconnected), star, path,
    single-vertex, and the structured generator families."""
    graphs = [
        Graph.from_edges([], num_vertices=1),  # single vertex
        Graph.from_edges([], num_vertices=7),  # only isolated vertices
        path_graph(1),
        path_graph(2),
        path_graph(60),
        star_graph(2),
        star_graph(100),
        paper_example_graph(),
        barabasi_albert(300, 3, seed=11),
    ]
    for seed in range(20):
        n = 5 + seed * 3
        graphs.append(random_graph(n, n + seed, seed))  # often disconnected
    for seed in range(20):
        n = 4 + seed * 4
        graphs.append(random_connected_graph(n, 2 * seed, seed))
    return graphs
