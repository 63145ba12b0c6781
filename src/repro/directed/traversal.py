"""Forward and backward BFS on directed graphs.

Both run the native ``repro_bfs`` kernel (:mod:`repro.graph.native`)
forced top-down over the forward or the reverse CSR, and fall back to
the numpy level loop :func:`_bfs` when the kernel is not built.  Either
way the distances and the counter totals are the same.

Also home of :class:`DirectedBFSOracle`, the asymmetric-metric back-end
of the generic solver: its reverse-distance hook is what lets
:class:`repro.core.solver.EccentricitySolver` run the paper's Algorithm
2 on digraphs, where ``dist(v, t) != dist(t, v)`` and a sweep probe is a
single *backward* BFS that yields no forward eccentricity.
"""

from __future__ import annotations

import threading
import weakref
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import sanitize
from repro.counters import TraversalCounter
from repro.errors import (
    DisconnectedGraphError,
    InvalidParameterError,
    InvalidVertexError,
)
from repro.graph import native
from repro.graph.engine import ALPHA, BETA
from repro.parallel.pool import TraversalPool, pool_for, resolve_workers
from repro.sentinels import UNREACHED
from repro.directed.graph import DirectedGraph

__all__ = [
    "forward_bfs",
    "backward_bfs",
    "is_strongly_connected",
    "DirectedBFSOracle",
]


def _bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    source: int,
    counter: Optional[TraversalCounter],
    label: str,
) -> np.ndarray:
    """Level-synchronous BFS over one arc direction.

    :dtype dist: int32
    :dtype frontier: int64
    """
    dist = np.full(n, UNREACHED, dtype=np.int32)
    dist[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    edges = 0
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        csum = np.cumsum(counts)
        offsets = np.repeat(starts - (csum - counts), counts)
        neighbors = indices[np.arange(total, dtype=np.int64) + offsets]
        edges += total
        fresh = neighbors[dist[neighbors] == UNREACHED]
        if len(fresh) == 0:
            break
        level += 1
        dist[fresh] = level
        frontier = np.unique(fresh).astype(np.int64)
    if counter is not None:
        counter.record(
            edges, int(np.count_nonzero(dist != UNREACHED)), label=label
        )
    return dist


#: A digraph's range-checked forward and backward CSR, in that order.
_Views = Tuple[native.CSRView, native.CSRView]

# Checking is O(n + m), so it is paid once per live digraph.
_VIEWS: "weakref.WeakKeyDictionary[DirectedGraph, _Views]" = (
    weakref.WeakKeyDictionary()
)
_VIEWS_LOCK = threading.Lock()


def _csr_views(graph: DirectedGraph) -> _Views:
    """The graph's forward and backward :class:`~repro.graph.native.CSRView`."""
    with _VIEWS_LOCK:
        views = _VIEWS.get(graph)
        if views is None:
            n = graph.num_vertices
            views = (
                native.CSRView(n, *graph.forward_view()),
                native.CSRView(n, *graph.backward_view()),
            )
            _VIEWS[graph] = views
    return views


def _directed_bfs(
    graph: DirectedGraph,
    source: int,
    counter: Optional[TraversalCounter],
    backward: bool,
) -> np.ndarray:
    """:func:`_bfs` over one arc direction, on the C kernel when built.

    The kernel runs forced top-down with per-call scratch, so threads
    can share the graph.

    :dtype dist: int32
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise InvalidVertexError(source, n)
    label = f"{'bwd' if backward else 'fwd'}:{source}"
    kern = native.kernels()
    if kern is None:
        view = graph.backward_view() if backward else graph.forward_view()
        return _bfs(*view, n, source, counter, label)
    csr = _csr_views(graph)[1 if backward else 0]
    dist = np.empty(n, dtype=np.int32)
    out = np.zeros(4, dtype=np.int64)
    buffers = (
        dist,
        np.empty(n, dtype=np.int32),  # level queue
        np.empty(n, dtype=np.int32),  # bottom-up candidates (unused)
        np.empty(n + 1, dtype=np.uint8),  # per-level directions
        np.empty(n + 1, dtype=np.int64),  # per-level frontier sizes
        out,
    )
    kern.bfs(
        n,
        csr.row_ptr_addr,
        csr.col_idx_addr,
        source,
        -1,
        native.MODE_CODES["top-down"],
        ALPHA,
        BETA,
        *(buffer.ctypes.data for buffer in buffers),
    )
    if counter is not None:
        _levels, scanned, _inspected, visited = out.tolist()
        counter.record(scanned, visited, label=label)
    return dist


def forward_bfs(
    graph: DirectedGraph,
    source: int,
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """Distances ``dist(source, v)`` along arc directions."""
    return _directed_bfs(graph, source, counter, backward=False)


def backward_bfs(
    graph: DirectedGraph,
    source: int,
    counter: Optional[TraversalCounter] = None,
) -> np.ndarray:
    """Distances ``dist(v, source)`` — i.e. along *reversed* arcs."""
    return _directed_bfs(graph, source, counter, backward=True)


def is_strongly_connected(graph: DirectedGraph) -> bool:
    """True when every ordered pair is connected (finite directed ecc).

    One forward plus one backward BFS from vertex 0 suffice.
    """
    n = graph.num_vertices
    if n <= 1:
        return True
    if np.any(forward_bfs(graph, 0) == UNREACHED):
        return False
    return not np.any(backward_bfs(graph, 0) == UNREACHED)


class DirectedBFSOracle:
    """The strongly-connected digraph oracle (asymmetric, ``int32``).

    Probe economics differ from the symmetric oracles in exactly the two
    ways the :class:`repro.core.oracles.DistanceOracle` protocol allows:

    * :meth:`source_probe` pays a forward + backward BFS *pair* (two
      counted traversals) — forward for ``ecc_f`` and the FFO, backward
      for the ``dist(., t)`` vector every bound update needs;
    * :meth:`sweep_probes` answers one source with a single backward
      BFS and returns ``None`` for the eccentricity: ``max_v dist(v, t)``
      is the *backward* eccentricity, not the forward one being
      computed, so the solver skips the ``set_exact`` step for probed
      sweep sources.

    With ``workers != 1`` the batched :meth:`ecc_all` and the
    forward + backward pair of :meth:`source_probe` run on the threads
    of a :class:`repro.parallel.pool.TraversalPool`; answers do not
    change.
    """

    dtype = np.dtype(np.int32)
    tolerance = 0.0
    symmetric = False
    metric_name = "DirectedIFECC"
    trace_kind = "bfs-directed"

    def __init__(
        self,
        graph: DirectedGraph,
        workers: Optional[int] = 1,
    ) -> None:
        if workers is not None:
            resolve_workers(workers)
        self.graph = graph
        self.num_vertices = graph.num_vertices
        self.workers = workers

    @property
    def pool(self) -> TraversalPool:
        """The thread pool behind batched dispatch (``workers != 1``)."""
        if self.workers == 1:
            raise InvalidParameterError("workers=1 runs without a pool")
        return pool_for(self.graph, workers=self.workers)

    def ecc_all(
        self,
        sources: Optional[Sequence[int]] = None,
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """Forward eccentricities for ``sources`` (default: all vertices).

        Raises :class:`DisconnectedGraphError` when any source fails to
        reach the whole graph — directed eccentricities are only finite
        on strongly connected digraphs.

        :dtype: int32
        """
        n = self.num_vertices
        if sources is None:
            src = np.arange(n, dtype=np.int64)
        else:
            src = np.asarray(sources, dtype=np.int64)
            bad = (src < 0) | (src >= n)
            if np.any(bad):
                raise InvalidVertexError(int(src[bad][0]), n)
        if self.workers != 1:
            ecc = self.pool.directed_eccentricities(src, counter=counter)
            if n > 1 and np.any(ecc < 0):
                raise self.disconnected_error()
            return ecc
        ecc = np.zeros(len(src), dtype=np.int32)
        for i, s in enumerate(src):
            dist = forward_bfs(self.graph, int(s), counter=counter)
            if n > 1 and np.any(dist == UNREACHED):
                raise self.disconnected_error()
            ecc[i] = int(dist.max()) if n else 0
        return ecc

    def select_references(
        self, strategy: str, count: int, seed: int
    ) -> np.ndarray:
        # Highest out-degree, ties to the smaller id (stable argsort →
        # count=1 matches argmax(out_degrees)).
        if strategy != "degree":
            raise InvalidParameterError(
                f"directed solver supports only the 'degree' strategy, "
                f"got {strategy!r}"
            )
        order = np.argsort(-self.graph.out_degrees(), kind="stable")
        return order[:count].astype(np.int32)

    def source_probe(
        self,
        source: int,
        counter: Optional[TraversalCounter] = None,
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        if self.workers != 1:
            # The forward and backward traversals run concurrently.
            rows = self.pool.directed_probe_pair(source, counter=counter)
            fwd = sanitize.assert_owned(rows[0].copy())
            bwd = sanitize.assert_owned(rows[1].copy())
        else:
            fwd = sanitize.assert_owned(
                forward_bfs(self.graph, source, counter=counter)
            )
            bwd = sanitize.assert_owned(
                backward_bfs(self.graph, source, counter=counter)
            )
        ecc = int(fwd.max()) if self.num_vertices else 0
        return ecc, fwd, bwd

    def sweep_probes(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        counter: Optional[TraversalCounter] = None,
    ) -> Tuple[List[Optional[float]], np.ndarray]:
        dist = backward_bfs(self.graph, int(sources[0]), counter=counter)
        return [None], dist[targets][np.newaxis]

    def disconnected_error(self) -> DisconnectedGraphError:
        return DisconnectedGraphError(
            2, "directed graph is not strongly connected"
        )

    def gap_cap(self) -> float:
        # Any forward eccentricity of an SCC is < n.
        return float(self.num_vertices)
