"""Breadth-first-search entry points.

Every algorithm in the paper — IFECC, kIFECC, PLLECC, BoundECC, kBFS, the
naive |V|-BFS baseline and SNAP's diameter estimator — reduces to a sequence
of single-source BFS computations on an unweighted graph.  This module
provides that primitive once; the actual kernel lives in
:mod:`repro.graph.engine`, a direction-optimizing (top-down / bottom-up)
BFS with pooled per-graph workspace buffers.  The functions here are thin
wrappers over the per-graph cached :class:`repro.graph.engine.BFSEngine`,
so callers keep the simple functional API while repeated traversals of one
graph stop paying per-run allocation.

The central entry points are:

:func:`bfs_distances`
    distances from one source to every vertex (``-1`` for unreachable).
:func:`eccentricity`
    the eccentricity of one vertex (max finite BFS distance).
:func:`multi_source_bfs`
    distance to the *nearest* of a set of sources, plus which source —
    used to assign each vertex to its closest reference node
    (Algorithm 2, line 6).
:class:`TraversalCounter`
    a cost meter shared by the benchmark harness; algorithms report their
    work in "number of BFS runs", the cost unit the paper uses when
    comparing approximate algorithms (Section 7.3).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.counters import TraversalCounter
from repro.graph.csr import Graph
from repro.graph.engine import UNREACHED, engine_for, gather_csr_arcs

__all__ = [
    "UNREACHED",
    "TraversalCounter",
    "bfs_distances",
    "bfs_distances_bounded",
    "eccentricity",
    "eccentricity_and_distances",
    "multi_source_bfs",
    "all_pairs_distances",
]


def _expand_frontier(graph: Graph, frontier: np.ndarray) -> np.ndarray:
    """Concatenated neighbor ids of all frontier vertices (with duplicates)."""
    counts = graph.indptr[frontier + 1] - graph.indptr[frontier]
    neighbors, _seg = gather_csr_arcs(
        graph.indptr, graph.indices, frontier, counts
    )
    return neighbors


def bfs_distances(
    graph: Graph,
    source: int,
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """Distances from ``source`` to all vertices.

    Returns an ``int32`` array of length ``n`` with ``UNREACHED`` (-1) for
    vertices in other components.  Runs in ``O(m + n)`` time and space.
    """
    return bfs_distances_bounded(graph, source, limit=None, counter=counter)


def bfs_distances_bounded(
    graph: Graph,
    source: int,
    limit: Optional[int] = None,
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """Distances from ``source``, optionally truncated at depth ``limit``.

    Vertices farther than ``limit`` keep distance ``UNREACHED``.  A ``None``
    limit performs a full BFS.

    :dtype dist: int32
    """
    engine = engine_for(graph)
    # The engine returns its pooled buffer; copy so callers own the result.
    return engine.run(source, limit=limit, counter=counter).copy()


def eccentricity(
    graph: Graph,
    source: int,
    counter: Optional[TraversalCounter] = None,
) -> int:
    """Eccentricity of ``source`` within its connected component."""
    engine = engine_for(graph)
    engine.run(source, counter=counter)
    return engine.last_ecc


def eccentricity_and_distances(
    graph: Graph,
    source: int,
    counter: Optional[TraversalCounter] = None,
) -> Tuple[int, np.ndarray]:
    """Eccentricity of ``source`` together with its distance vector.

    The eccentricity is taken over the reachable vertices only, matching
    the paper's connected-graph convention (footnote 2).
    """
    engine = engine_for(graph)
    dist = engine.run(source, counter=counter)
    return engine.last_ecc, dist.copy()


def multi_source_bfs(
    graph: Graph,
    sources: Sequence[int],
    counter: Optional[TraversalCounter] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest-source distances and the winning source for each vertex.

    Returns ``(dist, owner)`` where ``dist[v]`` is the distance from ``v``
    to its closest source and ``owner[v]`` that source's id (``-1`` when
    unreachable).  Ties are broken in favour of the source that appears
    first in ``sources`` (and for equal waves, the one with the smaller
    position), which makes reference-territory assignment deterministic.

    This is a single level-synchronous sweep, i.e. one BFS worth of work
    regardless of ``len(sources)``.

    :dtype dist: int32
    :dtype owner: int32
    """
    engine = engine_for(graph)
    dist, owner = engine.run_multi(sources, counter=counter)
    return dist.copy(), owner.copy()


def all_pairs_distances(
    graph: Graph,
    counter: Optional[TraversalCounter] = None,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(v, distances-from-v)`` for every vertex.

    This is the quadratic-time oracle; use only on small graphs (tests,
    the naive baseline, and Table 2 reproduction).
    """
    for v in range(graph.num_vertices):
        yield v, bfs_distances(graph, v, counter=counter)
