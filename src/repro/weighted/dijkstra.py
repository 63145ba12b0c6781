"""Single-source shortest distances on weighted graphs (Dijkstra).

The weighted analogue of :func:`repro.graph.traversal.bfs_distances`:
binary-heap Dijkstra with lazy deletion.  Distances are ``float64``;
unreachable vertices get ``numpy.inf``.

:class:`DijkstraOracle` packages the traversal as a
:class:`repro.core.oracles.DistanceOracle`, which is how the
metric-generic :class:`repro.core.solver.EccentricitySolver` (and the
extremes driver) run the paper's Algorithm 2 over non-negative edge
weights.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from repro import sanitize
from repro.counters import TraversalCounter
from repro.errors import (
    DisconnectedGraphError,
    InvalidParameterError,
    InvalidVertexError,
)
from repro.graph.traversal import TraversalCounter
from repro.weighted.graph import WeightedGraph

__all__ = [
    "dijkstra_distances",
    "weighted_eccentricity_and_distances",
    "DijkstraOracle",
]


def dijkstra_distances(
    graph: WeightedGraph,
    source: int,
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """Distances from ``source`` to every vertex (``inf`` = unreachable).

    The counter (when given) records one traversal with its scanned-edge
    and settled-vertex totals plus the number of successful edge
    *relaxations* — the Dijkstra-specific work measure.

    :dtype dist: float64
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise InvalidVertexError(source, n)
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    heap = [(0.0, source)]
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    edges_scanned = 0
    visited = 0
    relaxations = 0
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue  # stale entry
        visited += 1
        for pos in range(indptr[u], indptr[u + 1]):
            edges_scanned += 1
            w = int(indices[pos])
            nd = d + float(weights[pos])
            if nd < dist[w]:
                dist[w] = nd
                relaxations += 1
                heapq.heappush(heap, (nd, w))
    if counter is not None:
        counter.record(
            edges_scanned,
            visited,
            label=f"dijkstra:{source}",
            relaxations=relaxations,
        )
    return dist


def weighted_eccentricity_and_distances(
    graph: WeightedGraph,
    source: int,
    counter: Optional[TraversalCounter] = None,
) -> Tuple[float, np.ndarray]:
    """Weighted eccentricity of ``source`` (within its component) plus
    the distance vector."""
    dist = dijkstra_distances(graph, source, counter=counter)
    finite = dist[np.isfinite(dist)]
    return (float(finite.max()) if len(finite) else 0.0), dist


class DijkstraOracle:
    """The non-negative edge-weight oracle (symmetric, ``float64``).

    One Dijkstra per probe; the distance metric is symmetric, so a
    single traversal yields both directions.  Bound comparisons use an
    absolute ``tolerance`` (default ``1e-9``) because distances are sums
    of ``float64`` weights; with integer-valued weights the comparisons
    are exact.
    """

    dtype = np.dtype(np.float64)
    symmetric = True
    metric_name = "IFECC-weighted"
    trace_kind = "dijkstra"

    def __init__(self, graph: WeightedGraph, tolerance: float = 1e-9) -> None:
        self.graph = graph
        self.num_vertices = graph.num_vertices
        self.tolerance = float(tolerance)

    def select_references(
        self, strategy: str, count: int, seed: int
    ) -> np.ndarray:
        # Weighted graphs support the paper-default degree rule only
        # (stable argsort: ties to the smaller id, so count=1 matches
        # max_degree_vertex()).
        if strategy != "degree":
            raise InvalidParameterError(
                f"weighted solver supports only the 'degree' strategy, "
                f"got {strategy!r}"
            )
        order = np.argsort(-self.graph.degrees, kind="stable")
        return order[:count].astype(np.int32)

    def source_probe(
        self,
        source: int,
        counter: Optional[TraversalCounter] = None,
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        ecc, dist = weighted_eccentricity_and_distances(
            self.graph, source, counter=counter
        )
        dist = sanitize.assert_owned(dist)
        return ecc, dist, dist

    def sweep_probes(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        counter: Optional[TraversalCounter] = None,
    ) -> Tuple[List[Optional[float]], np.ndarray]:
        # One Dijkstra per call: the heap search has no lane batching.
        ecc, dist = weighted_eccentricity_and_distances(
            self.graph, int(sources[0]), counter=counter
        )
        return [ecc], dist[targets][np.newaxis]

    def disconnected_error(self) -> DisconnectedGraphError:
        return DisconnectedGraphError(2, "weighted graph is disconnected")

    def gap_cap(self) -> float:
        # Any eccentricity is at most (n - 1) hops of the heaviest edge.
        max_weight = (
            float(self.graph.weights.max()) if len(self.graph.weights) else 0.0
        )
        return float(max(self.num_vertices - 1, 0)) * max_weight
