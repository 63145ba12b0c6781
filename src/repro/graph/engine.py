"""Direction-optimizing BFS engine with pooled per-graph workspaces.

Every algorithm in this reproduction — IFECC's FFO sweep, kIFECC,
PLLECC's probe phase, BoundECC, kBFS, and the naive oracle — reduces to
single-source BFS, so this kernel is the hot path of the whole library.
Compared to the original level-synchronous kernel in
:mod:`repro.graph.traversal` it applies three optimisations:

1. **Pooled workspaces.**  A :class:`BFSEngine` is constructed once per
   graph and owns reusable ``int32``/``int64``/``bool`` buffers
   (distance vector, frontier bitmap, dedupe bitmap, owner/priority
   scratch).  Algorithms that run thousands of BFSs on one graph (the
   FFO-ordered IFECC sweep, the naive oracle) stop paying an ``O(n)``
   allocation per run.  Pooling is safe because :class:`Graph` arrays
   are immutable (reprolint R1): a cached engine can never observe a
   mutated CSR.

2. **Mask-based frontier dedupe.**  Top-down levels dedupe the
   discovered neighbors with a boolean bitmap instead of ``np.unique``'s
   ``O(f log f)`` sort whenever the candidate set is large; tiny
   frontiers (deep, thin graphs such as grids and paths, where a full
   ``O(n)`` bitmap scan per level would dominate) keep the sort.  Both
   paths produce the identical sorted frontier, so traversal order — and
   therefore every downstream tie-break — is unchanged.

3. **Direction switching.**  On the scale-free, low-diameter graphs the
   paper targets, >90% of edge inspections happen on a few dense middle
   levels.  There the engine runs **bottom-up**: unvisited vertices test
   whether any neighbor sits in the frontier bitmap (vectorised over the
   CSR slices with ``np.logical_or.reduceat``) instead of expanding
   every frontier arc.  The classic heuristic of Beamer et al. (and of
   Then et al.'s MS-BFS, the paper's reference [35]) decides per level:
   switch top-down → bottom-up when ``m_frontier > m_unvisited / α``,
   and back when the frontier shrinks below ``n / β``.  The out-degree
   prefix sums the heuristic needs are exactly the immutable CSR
   ``indptr`` array, so ``m_frontier`` and ``m_unvisited`` cost one
   vectorised gather per level.

Direction choice changes *speed only, never answers*: a vertex first
reached at level ``d`` is assigned distance ``d`` in either direction,
so distance vectors (and everything derived from them — FFOs, bounds,
territories, ``IFECC.run()`` output) are bit-identical to the seed
kernel.  Per-level decisions and the edges inspected by bottom-up
levels (which are never "scanned" in the top-down sense) are recorded
in :class:`BFSRunStats` and surface through
``TraversalCounter.edges_inspected`` so cost accounting stays honest.

**Two kernels, one behaviour.**  The level loop exists twice: the
numpy loop below (:meth:`BFSEngine._levels`) and its C port in
``_kernels.c`` (``repro_bfs``), which :mod:`repro.graph.native`
compiles on first use and loads through ctypes.  Each run uses the C
kernel when it is loaded and the numpy loop otherwise (no compiler, a
failed build); nothing else selects between them.  The C loop makes the
same per-level direction decisions and keeps the same accounting —
including charging a bottom-up candidate its full degree even though
the C probe stops at the first frontier hit — so distances,
``last_ecc``, :class:`BFSRunStats`, counters and ``bfs.run`` events are
identical under either kernel.  On the 50k power-law graph one hybrid
BFS takes about 1 ms in C against 5 ms in numpy (2-core x86 VM).

Use :func:`engine_for` to obtain the per-graph cached engine; the cache
is keyed weakly so dropping the last reference to a graph frees its
workspaces.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro import sanitize
from repro.errors import InvalidParameterError, InvalidVertexError
from repro.graph import native
from repro.graph.csr import Graph
from repro.obs.trace import get_tracer
from repro.sentinels import UNREACHED

if TYPE_CHECKING:  # runtime import would be circular; only annotations need it
    from repro.counters import TraversalCounter

__all__ = [
    "ALPHA",
    "BETA",
    "UNREACHED",
    "BFSEngine",
    "BFSRunStats",
    "engine_for",
    "gather_csr_arcs",
]

#: Direction heuristic: go bottom-up when ``m_frontier > m_unvisited / ALPHA``.
#: Beamer's C++ implementation uses 14; numpy's bottom-up probe costs about
#: as much per arc as a top-down expansion, so a stricter threshold
#: (switch later, when the unvisited arc mass is genuinely small) wins —
#: measured 4.7x vs. 3.2x seed-kernel speedup on the 50k power-law graph.
ALPHA = 4.0

#: Direction heuristic: return top-down when ``|frontier| < n / BETA``.
BETA = 24.0

#: Mask-based dedupe pays an ``O(n)`` bitmap scan; use it only once the
#: candidate set is at least ``n / _MASK_DEDUPE_DIVISOR`` entries, else
#: the ``O(f log f)`` sort is cheaper (thin frontiers, deep graphs).
_MASK_DEDUPE_DIVISOR = 16


@dataclass
class BFSRunStats:
    """Audit trail of one engine run (Figure 8-style accounting).

    ``directions[i]`` is ``"td"`` or ``"bu"`` for level ``i + 1``;
    ``frontier_sizes[i]`` the number of vertices first reached at that
    level.  ``edges_scanned`` counts arcs expanded by top-down levels
    (the seed kernel's cost metric); ``edges_inspected`` additionally
    counts the arcs bottom-up levels examined while probing unvisited
    vertices, so hybrid runs remain comparable with top-down ones.
    """

    source: int = -1
    levels: int = 0
    edges_scanned: int = 0
    edges_inspected: int = 0
    directions: List[str] = field(default_factory=list)
    frontier_sizes: List[int] = field(default_factory=list)


def gather_csr_arcs(
    indptr: np.ndarray,
    indices: np.ndarray,
    vertices: np.ndarray,
    counts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated neighbor ids of ``vertices`` plus segment starts.

    Returns ``(neighbors, seg_starts)`` where ``neighbors`` lists every
    arc endpoint of every vertex (duplicates included, per-vertex slices
    contiguous) and ``seg_starts[i]`` is the offset of vertex ``i``'s
    slice inside ``neighbors``.  ``counts`` must equal
    ``indptr[vertices + 1] - indptr[vertices]``.

    :dtype positions: int64
    """
    starts = indptr[vertices]
    csum = np.cumsum(counts)
    seg_starts = csum - counts
    total = int(csum[-1]) if len(csum) else 0
    if total == 0:
        return np.empty(0, dtype=indices.dtype), seg_starts
    offsets = np.repeat(starts - seg_starts, counts)
    positions = np.arange(total, dtype=np.int64) + offsets
    return indices[positions], seg_starts


class _NativeWork:
    """The C kernel's scratch buffers for one engine, and their addresses.

    ``pointers`` is the tail of the ``repro_bfs`` argument list, in
    order: the engine's pooled distance buffer, the level queue, the
    bottom-up candidate list, the per-level direction codes and
    frontier sizes, and the four-slot result vector.

    :dtype queue: int32
    :dtype cand: int32
    :dtype dirs: uint8
    :dtype sizes: int64
    :dtype out: int64
    """

    __slots__ = (
        "csr",
        "queue",
        "cand",
        "dirs",
        "sizes",
        "out",
        "pointers",
    )

    def __init__(self, engine: "BFSEngine") -> None:
        n = engine._n
        self.csr = native.CSRView(n, engine._row_ptr, engine._col_idx)
        self.queue = np.empty(n, dtype=np.int32)
        self.cand = np.empty(n, dtype=np.int32)
        self.dirs = np.empty(n + 1, dtype=np.uint8)
        self.sizes = np.empty(n + 1, dtype=np.int64)
        self.out = np.zeros(4, dtype=np.int64)
        self.pointers = (
            engine._dist.ctypes.data,
            self.queue.ctypes.data,
            self.cand.ctypes.data,
            self.dirs.ctypes.data,
            self.sizes.ctypes.data,
            self.out.ctypes.data,
        )


class BFSEngine:
    """Reusable direction-optimizing BFS kernel for one graph.

    The engine owns its workspace buffers; :meth:`run` returns the
    *pooled* distance buffer, which stays valid only until the next
    call on the same engine.  Callers that retain distances (FFOs,
    memoised sweeps, the public :func:`repro.graph.traversal.\
bfs_distances` wrapper) must copy.

    Parameters
    ----------
    graph:
        The immutable CSR graph this engine traverses.
    alpha, beta:
        Direction-switching thresholds (see module docstring).
    """

    __slots__ = (
        "graph",
        "alpha",
        "beta",
        "last_ecc",
        "last_stats",
        "_n",
        "_arcs",
        "_row_ptr",
        "_col_idx",
        "_degrees",
        "_dist",
        "_frontier_mask",
        "_dedupe_mask",
        "_owner",
        "_priority",
        "_guard",
        "_native",
        "__weakref__",
    )

    def __init__(
        self, graph: Graph, alpha: float = ALPHA, beta: float = BETA
    ) -> None:
        if alpha <= 0 or beta <= 0:
            raise InvalidParameterError("alpha and beta must be positive")
        self.graph = graph
        self.alpha = float(alpha)
        self.beta = float(beta)
        n = graph.num_vertices
        self._n = n
        self._row_ptr = graph.indptr  # the out-degree prefix sums
        self._col_idx = graph.indices
        self._degrees = graph.degrees
        self._arcs = int(len(graph.indices))
        # Pooled workspaces, sized once per graph (reprolint R1 makes the
        # CSR immutable, so these can never go stale).
        #
        # :dtype dist: int32
        # :dtype owner: int32
        # :dtype priority: int64
        self._dist = np.empty(n, dtype=np.int32)
        self._frontier_mask = np.zeros(n, dtype=np.bool_)
        self._dedupe_mask = np.zeros(n, dtype=np.bool_)
        self._owner: Optional[np.ndarray] = None  # lazy; multi-source only
        self._priority: Optional[np.ndarray] = None
        # None unless REPRO_SANITIZE is armed at construction time, so
        # the production cost of the sanitizer is one `is None` per run.
        self._guard = sanitize.guard_if_enabled("BFSEngine")
        # Scratch for the native kernel, allocated on its first run.
        self._native: Optional[_NativeWork] = None
        #: Eccentricity (max finite distance) of the last :meth:`run`.
        self.last_ecc: int = 0
        #: Per-level audit of the last :meth:`run`.
        self.last_stats: BFSRunStats = BFSRunStats()

    # ------------------------------------------------------------------
    # Single-source BFS
    # ------------------------------------------------------------------
    def run(
        self,
        source: int,
        limit: Optional[int] = None,
        counter: Optional["TraversalCounter"] = None,
        mode: str = "hybrid",
    ) -> np.ndarray:
        """BFS distances from ``source`` into the pooled buffer.

        ``mode`` is ``"hybrid"`` (direction-optimizing, the default),
        ``"top-down"`` or ``"bottom-up"`` (forced, for benchmarks and
        equivalence tests).  Returns the pooled ``int32`` distance
        vector — copy before the next call if you keep it.  Sets
        :attr:`last_ecc` and :attr:`last_stats`.

        Under ``REPRO_SANITIZE=1`` the returned vector is a read-only
        :class:`repro.sanitize.GuardedArray` loan that raises on use
        after the next run.
        """
        guard = self._guard
        if guard is None:
            return self._run_impl(source, limit, counter, mode)
        guard.begin_run()
        try:
            dist = self._run_impl(source, limit, counter, mode)
        finally:
            guard.end_run()
        return guard.loan(dist, "BFSEngine._dist")

    def _run_impl(
        self,
        source: int,
        limit: Optional[int],
        counter: Optional["TraversalCounter"],
        mode: str,
    ) -> np.ndarray:
        """The traversal itself; returns the raw pooled buffer."""
        if mode not in ("hybrid", "top-down", "bottom-up"):
            raise InvalidParameterError(f"unknown BFS mode: {mode!r}")
        if limit is not None and limit < 0:
            raise InvalidParameterError("limit must be non-negative")
        n = self._n
        if not 0 <= source < n:
            raise InvalidVertexError(source, n)
        kern = native.kernels()
        if kern is None:
            stats, visited = self._levels(source, limit, mode)
        else:
            stats, visited = self._levels_native(kern, source, limit, mode)
        self.last_ecc = stats.levels
        self.last_stats = stats
        if counter is not None:
            counter.record(
                stats.edges_scanned,
                visited,
                label=f"bfs:{source}",
                inspected=stats.edges_inspected,
            )
        tracer = get_tracer()
        if tracer.enabled:
            # One event per run, assembled from the already-collected
            # stats — per-level emission would put sink calls on the hot
            # path; this keeps the disabled cost at one branch per BFS.
            tracer.event(
                "bfs.run",
                source=source,
                mode=mode,
                levels=stats.levels,
                ecc=stats.levels,
                visited=visited,
                edges_scanned=stats.edges_scanned,
                edges_inspected=stats.edges_inspected,
                directions=list(stats.directions),
                frontier_sizes=list(stats.frontier_sizes),
            )
            tracer.metrics.ingest_run_stats(stats)
        return self._dist

    def _levels_native(
        self,
        kern: "native.Kernels",
        source: int,
        limit: Optional[int],
        mode: str,
    ) -> Tuple[BFSRunStats, int]:
        """The level loop in C; same decisions and stats as :meth:`_levels`.

        Returns ``(stats, vertices visited)``; the distances land in the
        pooled buffer.
        """
        work = self._native
        if work is None:
            work = self._native = _NativeWork(self)
        kern.bfs(
            self._n,
            work.csr.row_ptr_addr,
            work.csr.col_idx_addr,
            source,
            -1 if limit is None else limit,
            native.MODE_CODES[mode],
            self.alpha,
            self.beta,
            *work.pointers,
        )
        levels, scanned, inspected, visited = work.out.tolist()
        stats = BFSRunStats(
            source=source,
            levels=levels,
            edges_scanned=scanned,
            edges_inspected=inspected,
            directions=[
                native.DIRECTION_NAMES[d] for d in work.dirs[:levels].tolist()
            ],
            frontier_sizes=work.sizes[:levels].tolist(),
        )
        return stats, visited

    def _levels(
        self, source: int, limit: Optional[int], mode: str
    ) -> Tuple[BFSRunStats, int]:
        """The numpy level loop; the reference the C kernel mirrors.

        Returns ``(stats, vertices visited)``; the distances land in the
        pooled buffer.
        """
        dist = self._dist
        dist.fill(UNREACHED)
        dist[source] = 0
        stats = BFSRunStats(source=source)
        frontier = np.asarray([source], dtype=np.int64)
        degrees = self._degrees
        m_frontier = int(degrees[source])
        m_unvisited = self._arcs - m_frontier
        visited = 1
        level = 0
        hybrid = mode == "hybrid"
        direction = "bu" if mode == "bottom-up" else "td"
        alpha = self.alpha
        n_over_beta = self._n / self.beta
        prev_m_frontier = 0
        # Unvisited candidates (degree > 0), maintained only while
        # running bottom-up; None means "not materialised".
        cand: Optional[np.ndarray] = None
        while frontier.size:
            if limit is not None and level >= limit:
                break
            # Beamer-style per-level decision, inlined (a method call per
            # level is measurable on diameter-hundreds graphs).  Bottom-up
            # is entered only while the frontier's arc mass still grows:
            # on high-diameter graphs the frontier plateaus, and probing
            # every unvisited vertex per level would turn O(m) into
            # O(n * diameter).
            if hybrid:
                if direction == "td":
                    if (
                        m_frontier > prev_m_frontier
                        and m_frontier * alpha > m_unvisited
                    ):
                        direction = "bu"
                elif len(frontier) < n_over_beta:
                    direction = "td"
                    cand = None
            if direction == "bu" and cand is None:
                unvisited = np.flatnonzero(self._dist == UNREACHED)
                cand = unvisited[degrees[unvisited] > 0]
            if direction == "td":
                fresh, arcs = self._top_down_level(frontier)
                stats.edges_scanned += arcs
                stats.edges_inspected += arcs
            else:
                assert cand is not None
                fresh, arcs, cand = self._bottom_up_level(frontier, cand)
                stats.edges_inspected += arcs
            if fresh is None or len(fresh) == 0:
                break
            level += 1
            dist[fresh] = level
            visited += len(fresh)
            prev_m_frontier = m_frontier
            m_frontier = int(degrees[fresh].sum())
            m_unvisited -= m_frontier
            stats.directions.append(direction)
            stats.frontier_sizes.append(len(fresh))
            frontier = fresh.astype(np.int64, copy=False)
        stats.levels = level
        return stats, visited

    def _top_down_level(
        self, frontier: np.ndarray
    ) -> Tuple[Optional[np.ndarray], int]:
        """Expand ``frontier``; return (new frontier, arcs scanned)."""
        dist = self._dist
        counts = self._degrees[frontier]
        neighbors, _seg = gather_csr_arcs(
            self._row_ptr, self._col_idx, frontier, counts
        )
        arcs = len(neighbors)
        if arcs == 0:
            return None, 0
        cand = neighbors[dist[neighbors] == UNREACHED]
        if len(cand) == 0:
            return None, arcs
        if len(cand) * _MASK_DEDUPE_DIVISOR >= self._n:
            # Dense level: bitmap dedupe, O(len(cand) + n), no sort.
            mask = self._dedupe_mask
            mask[cand] = True
            fresh = np.flatnonzero(mask).astype(np.int64)
            mask[fresh] = False
            return fresh, arcs
        # Thin level: the sort is cheaper than scanning the bitmap.
        return np.unique(cand).astype(np.int64), arcs

    def _bottom_up_level(
        self, frontier: np.ndarray, cand: np.ndarray
    ) -> Tuple[Optional[np.ndarray], int, np.ndarray]:
        """Unvisited vertices probe the frontier bitmap.

        Returns ``(fresh, arcs inspected, surviving candidates)``.
        """
        if len(cand) == 0:
            return None, 0, cand
        mask = self._frontier_mask
        mask[frontier] = True
        counts = self._degrees[cand]
        arc_dst, seg_starts = gather_csr_arcs(
            self._row_ptr, self._col_idx, cand, counts
        )
        hits = mask[arc_dst]
        # counts > 0 for every candidate, so reduceat segments are
        # non-empty and aligned with `cand`.
        found = np.logical_or.reduceat(hits, seg_starts)
        mask[frontier] = False
        fresh = cand[found]
        if len(fresh) == 0:
            return None, len(arc_dst), cand
        return fresh.astype(np.int64, copy=False), len(arc_dst), cand[~found]

    # ------------------------------------------------------------------
    # Batched eccentricities
    # ------------------------------------------------------------------
    def ecc_batch(
        self,
        sources: Sequence[int],
        out: Optional[np.ndarray] = None,
        counter: Optional["TraversalCounter"] = None,
    ) -> np.ndarray:
        """Eccentricity of every source, batched through the MS engine.

        ``out[i]`` receives ``ecc(sources[i])`` (within the source's
        component — the max level reached, matching :attr:`last_ecc`).
        Large batches run the bit-parallel multi-source sweeps of
        :class:`repro.graph.msengine.MSBFSEngine` in the lane width
        :func:`~repro.graph.msengine.plan_lane_width` picks; small
        batches loop this engine.  Either way the per-source distances
        — and therefore the eccentricities — are bit-identical, and the
        counter is credited one traversal per source.  The traversal
        pool (:mod:`repro.parallel.pool`) runs the same sweeps on its
        threads.

        :mutates out: ``out[i]`` is overwritten with ``ecc(sources[i])``.
        :dtype out: int32
        """
        from repro.graph.msengine import msengine_for, plan_lane_width

        src = np.ascontiguousarray(sources, dtype=np.int64)
        if out is None:
            out = np.empty(len(src), dtype=np.int32)
        width = plan_lane_width(self._arcs, len(src))
        if width == 0:
            for i in range(len(src)):
                self.run(int(src[i]), counter=counter)
                out[i] = self.last_ecc
            return out
        ms = msengine_for(self.graph)
        for start in range(0, len(src), width):
            batch = src[start: start + width]
            # The engine reduces eccentricities straight off its sweep
            # buffer (an isolated source maps to 0, matching last_ecc);
            # no (k, n) distance matrix is materialised here.
            out[start: start + len(batch)] = ms.ecc_batch(
                batch, counter=counter
            )
        return out

    # ------------------------------------------------------------------
    # Multi-source BFS with owner propagation
    # ------------------------------------------------------------------
    def run_multi(
        self,
        sources: Sequence[int],
        counter: Optional["TraversalCounter"] = None,
        strategy: str = "union",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Nearest-source distances and winning source per vertex.

        Matches :func:`repro.graph.traversal.multi_source_bfs` exactly
        (ties go to the source earliest in ``sources``).  The default
        ``strategy="union"`` grows all regions in one shared traversal
        — O(m) total, since every arc is expanded at most once — and
        runs the ``np.lexsort`` + ``np.unique`` tie-break pair only on
        levels where a vertex was actually discovered twice.
        ``strategy="lanes"`` instead computes every source's full
        distance vector on the bit-parallel MS engine and reduces to
        the per-vertex winner; that costs O(m · levels) like any
        per-source batch (which is why it is *not* the default — see
        DESIGN.md) and accordingly credits the counter one traversal
        per distinct source, but the returned arrays are identical.

        Returns pooled buffers, valid until the next engine call.
        Under ``REPRO_SANITIZE=1`` both are read-only guarded loans.
        """
        if strategy not in ("union", "lanes"):
            raise InvalidParameterError(
                f"unknown run_multi strategy: {strategy!r}"
            )
        guard = self._guard
        if guard is None:
            return self._run_multi_impl(sources, counter, strategy)
        guard.begin_run()
        try:
            dist, owner = self._run_multi_impl(sources, counter, strategy)
        finally:
            guard.end_run()
        return (
            guard.loan(dist, "BFSEngine._dist"),
            guard.loan(owner, "BFSEngine._owner"),
        )

    def _run_multi_impl(
        self,
        sources: Sequence[int],
        counter: Optional["TraversalCounter"],
        strategy: str = "union",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The multi-source traversal; returns the raw pooled buffers.

        :dtype src: int64
        """
        n = self._n
        src = np.asarray(list(sources), dtype=np.int64)
        if src.size and (src.min() < 0 or src.max() >= n):
            bad = src[(src < 0) | (src >= n)][0]
            raise InvalidVertexError(int(bad), n)
        dist = self._dist
        dist.fill(UNREACHED)
        if self._owner is None:
            self._owner = np.empty(n, dtype=np.int32)
            self._priority = np.empty(n, dtype=np.int64)
        owner = self._owner
        priority = self._priority
        assert priority is not None
        owner.fill(-1)
        if len(src) == 0:
            return dist, owner
        # priority[s] = first position of s in `sources` (earlier wins).
        priority.fill(n)
        np.minimum.at(priority, src, np.arange(len(src), dtype=np.int64))
        if strategy == "lanes":
            return self._run_multi_lanes(src, dist, owner, priority, counter)
        frontier = np.unique(src)
        dist[frontier] = 0
        owner[frontier] = frontier
        single = len(frontier) == 1
        indptr, indices, degrees = self._row_ptr, self._col_idx, self._degrees
        level = 0
        edges = 0
        while frontier.size:
            counts = degrees[frontier]
            neighbors, _seg = gather_csr_arcs(
                indptr, indices, frontier, counts
            )
            edges += len(neighbors)
            if len(neighbors) == 0:
                break
            unseen = dist[neighbors] == UNREACHED
            fresh = neighbors[unseen]
            if len(fresh) == 0:
                break
            level += 1
            if single:
                # One source: every discovery inherits the same owner.
                uniq = np.unique(fresh).astype(np.int64)
                dist[uniq] = level
                owner[uniq] = owner[frontier[0]]
            else:
                owners_expanded = np.repeat(owner[frontier], counts)
                fresh_owner = owners_expanded[unseen]
                uniq = np.unique(fresh).astype(np.int64)
                if len(uniq) == len(fresh):
                    # No vertex discovered twice ⇒ no ties to break.
                    dist[fresh] = level
                    owner[fresh] = fresh_owner
                else:
                    # Duplicate discoveries: the owner with the best
                    # (smallest) source priority wins, as in the seed.
                    # After the lexsort, the first occurrence of each
                    # vertex carries the winning owner.
                    rank = np.lexsort((priority[fresh_owner], fresh))
                    first_idx = np.searchsorted(fresh[rank], uniq)
                    dist[uniq] = level
                    owner[uniq] = fresh_owner[rank[first_idx]]
            frontier = uniq
        if counter is not None:
            counter.record(edges, int(np.count_nonzero(dist != UNREACHED)))
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "bfs.run_multi",
                num_sources=int(len(src)),
                levels=level,
                edges_scanned=edges,
            )
        return dist, owner

    def _run_multi_lanes(
        self,
        src: np.ndarray,
        dist: np.ndarray,
        owner: np.ndarray,
        priority: np.ndarray,
        counter: Optional["TraversalCounter"],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-source lane rows reduced to the nearest-source winner.

        For each vertex the winner is the minimum-distance source, ties
        broken by the smallest priority (first position in ``sources``)
        — provably the same assignment the union traversal's owner
        propagation produces, because a claimed vertex's owner always
        achieves the minimum distance with the best priority among
        co-minimal sources.

        :mutates dist: overwritten with the nearest-source distances.
        :mutates owner: overwritten with the winning source per vertex.
        :dtype rows: int32
        """
        from repro.graph.msengine import batch_distance_rows

        uniq = np.unique(src)
        # Rows ordered best-priority-first so argmin's first-hit rule
        # *is* the tie-break.
        ordered = uniq[np.argsort(priority[uniq], kind="stable")]
        rows = batch_distance_rows(self.graph, ordered, counter=counter)
        key = np.where(rows == UNREACHED, np.iinfo(np.int32).max, rows)
        best = np.argmin(key, axis=0)
        nearest = rows[best, np.arange(self._n, dtype=np.int64)]
        dist[:] = nearest
        owner[:] = np.where(nearest == UNREACHED, -1, ordered[best]).astype(
            np.int32
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "bfs.run_multi",
                num_sources=int(len(src)),
                strategy="lanes",
            )
        return dist, owner


# One engine per live graph; the weak key means dropping the graph also
# frees its pooled buffers.  Safe because Graph arrays are immutable (R1).
_ENGINES: "weakref.WeakKeyDictionary[Graph, BFSEngine]" = (
    weakref.WeakKeyDictionary()
)
_ENGINES_LOCK = threading.Lock()


def engine_for(graph: Graph) -> BFSEngine:
    """The cached :class:`BFSEngine` of ``graph`` (created on first use).

    The get-or-create is serialized so two threads racing on a fresh
    graph share one engine instead of silently pooling two sets of
    buffers.  (The engine itself stays single-threaded per graph — the
    sanitizer's reentrancy check enforces exactly that.)
    """
    with _ENGINES_LOCK:
        engine = _ENGINES.get(graph)
        if engine is None:
            engine = BFSEngine(graph)
            _ENGINES[graph] = engine
    return engine
