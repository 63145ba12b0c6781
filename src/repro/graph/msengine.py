"""Direction-optimizing bit-parallel multi-source BFS engine.

This module marries the repository's two traversal accelerators:

* the **bit-parallel lanes** of Then et al., *The More the Merrier*
  (VLDB 2014, the paper's reference [35]) — up to 64 BFS traversals
  share one sweep by packing their visited sets into ``uint64`` words,
  one lane per source; and
* the **direction switching** of Beamer et al. (and of
  :class:`repro.graph.engine.BFSEngine`, PR 2) — dense middle levels
  run *bottom-up*, where unvisited vertices probe the frontier instead
  of the frontier expanding every arc.

The combination is the largest remaining single-host speedup for the
batch phases (naive ED, FFO seeding, sampling baselines, reference
scans): a 64-source batch costs one hybrid sweep instead of 64.

Level update, generalised to ``W`` lane words per vertex
(``W * 64`` concurrent sources):

* **top-down** — gather the arcs of every active vertex and OR the
  packed frontier words onto the targets
  (``next[v] |= frontier[u]`` for every arc ``u -> v``), then mask
  with ``~seen``;
* **bottom-up** — every vertex still missing a live lane OR-reduces
  its neighbors' frontier words over its CSR slice
  (``np.bitwise_or.reduceat``); fresh bits are ``reduced & ~seen[v]``.

The per-level direction decision reuses the single-source engine's
``alpha``/``beta`` thresholds, driven by the *aggregate* frontier arc
mass across all live lanes; a lane retires early the moment its
frontier empties (its reachable set saturated), dropping out of the
``live`` word so bottom-up levels stop probing on its behalf.

Direction choice and lane packing change *speed only, never answers*:
each lane computes exactly the level-synchronous BFS distances of its
source, so results are bit-identical to the seed MS-BFS kernel and to
looping :meth:`BFSEngine.run` — the property the golden corpus and the
equivalence suite pin.

Workspaces follow the pooled discipline of the rest of the repository:
``(n, W)`` ``uint64`` bitmaps are allocated once per ``(graph, W)``
(weakly cached; safe because the CSR is immutable, reprolint R1) and
zeroed in place between batches.  Returned distance matrices are
always freshly owned — their shape depends on the batch.

The sweep runs in C (``repro_msbfs`` in ``_kernels.c``, loaded by
:mod:`repro.graph.native`) whenever that library is built, else in the
numpy loop of :meth:`MSBFSEngine._levels`.  The C sweep reuses the same
pooled bitmaps, takes the same direction decisions (the
``m_unsaturated`` check and its ``m_checked`` doubling included) and
records the same :class:`MSBFSRunStats`, so rows, eccentricities,
counters and ``msbfs.run`` events are identical under either kernel.
For :meth:`MSBFSEngine.ecc_batch` it tracks each lane's last level
directly and skips the ``(n, k)`` distance matrix altogether.

:func:`plan_lane_width` is the router's policy: given ``n``, ``m`` and
the batch size it picks a lane width (64/128/256) or serial
single-source traversal, so every seam (``ecc_batch``,
``distance_rows``, the msbfs module, the baselines) can delegate the
"how" without owning the heuristics.
"""

from __future__ import annotations

import sys
import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import sanitize
from repro.errors import InvalidParameterError, InvalidVertexError
from repro.graph import native
from repro.graph.csr import Graph
from repro.graph.engine import ALPHA, BETA, engine_for, gather_csr_arcs
from repro.obs.trace import get_tracer
from repro.sentinels import UNREACHED

if TYPE_CHECKING:  # runtime import would be circular; annotations only
    from repro.counters import TraversalCounter

__all__ = [
    "LANE_WORD_BITS",
    "MAX_LANE_WORDS",
    "MSBFSEngine",
    "MSBFSRunStats",
    "batch_distance_rows",
    "msengine_for",
    "plan_lane_width",
    "plan_probe_lanes",
]

#: Lanes per workspace word — the machine word width of the bitmaps.
LANE_WORD_BITS = 64

#: Widest supported lane group: 4 words = 256 concurrent sources.
#: Wider words raise the cost of *every* per-vertex OR; past 4 the
#: extra batching no longer pays for it on the paper's graph sizes.
MAX_LANE_WORDS = 4

#: Batches smaller than this loop the serial single-source engine.
#: Measured on the C kernels (``serial_ladder`` of
#: ``benchmarks/bench_msbfs_engine.py`` in full mode, the 12 small
#: stand-ins): random batches of 4-16 sources took 0.58-0.93x as long
#: looped as swept, 24 sources 1.37x and 64 sources 2.18x.
_SERIAL_BATCH_LIMIT = 24

_LITTLE_ENDIAN = sys.byteorder == "little"


def plan_lane_width(num_arcs: int, batch_size: int) -> int:
    """Lane width (sources per sweep) for a batched traversal phase.

    Returns ``0`` when the batch should loop the serial single-source
    hybrid engine instead, else ``64``, ``128`` or ``256``.  The
    planner only ever affects *speed*: every width produces
    bit-identical distances (lanes are independent), so routers may
    trust it blindly.
    """
    if batch_size < _SERIAL_BATCH_LIMIT:
        return 0
    if num_arcs == 0:
        # Edge-free graphs: every BFS is O(1); lane setup would dominate.
        return 0
    # The widest group the batch fills: on the C kernel, all-source
    # sweeps of the 12 small stand-ins at 0.125-2x scale (233 to 7,008
    # vertices) were fastest at 256 lanes at every scale, with 128 and
    # 64 lanes even (``width_ladder`` of bench_msbfs_engine.py).
    if batch_size >= 256:
        return 256
    if batch_size >= 128:
        return 128
    return LANE_WORD_BITS


#: Probe-lane planner (:func:`plan_probe_lanes`), from the ladder of
#: ``benchmarks/bench_probe_lanes.py`` (IFECC exact ED on the Table-3
#: stand-ins at several scales, C kernel).  Below 2,600 vertices lanes
#: were a wash (median 0.98-1.00x the single-probe time in two ladder
#: runs): a single BFS is so cheap there that a sweep's fixed cost and
#: its overrun lanes eat the gain.  From 2,618 vertices up lanes won on
#: 44-48 of 54 graphs, median 0.80-0.81x.
_PROBE_MIN_VERTICES = 2_600
#: Lanes pay once few target columns remain: ``|targets| * 64 <= 4n``.
#: The ladder had no consistent best factor from 1 to 16.
_PROBE_TARGETS_PER_VERTEX = 4 / LANE_WORD_BITS
#: One word per sweep: two or four words cost about twice or four times
#: as much per sweep and mostly sweep lanes nobody applies (on the large
#: stand-ins 0.80-0.98x and 1.01-1.56x of single probes, vs 0.57-0.79x).
_PROBE_LANES = LANE_WORD_BITS


def plan_probe_lanes(
    num_vertices: int, num_targets: int, num_offered: int
) -> int:
    """How many offered FFO candidates one probe sweep should take.

    Returns ``0`` when the solver's next probe should be one
    single-source traversal, else the lane count of one
    :meth:`MSBFSEngine.probe_batch` sweep.  Like
    :func:`plan_lane_width` it only ever affects speed: every probe's
    distances are exact, and the solver applies lanes in FFO order.
    """
    if num_offered < 2 or num_vertices < _PROBE_MIN_VERTICES:
        return 0
    if num_targets > _PROBE_TARGETS_PER_VERTEX * num_vertices:
        return 0
    return min(num_offered, _PROBE_LANES)


@dataclass
class MSBFSRunStats:
    """Audit trail of one multi-source sweep (Figure 8-style accounting).

    ``directions[i]`` is ``"td"`` or ``"bu"`` for level ``i + 1``;
    ``live_lanes[i]`` how many lanes still had a non-empty frontier
    entering that level (retirement makes this non-increasing);
    ``frontier_sizes[i]`` the number of vertices holding any fresh lane
    bit at that level.  ``edges_scanned`` counts arcs expanded top-down
    (the seed kernel's metric), ``edges_inspected`` additionally counts
    bottom-up probe arcs, and ``words_touched`` totals the ``uint64``
    bitmap words read or written — the bandwidth term lane width trades
    against sweep count.
    """

    num_sources: int = 0
    lane_words: int = 0
    levels: int = 0
    edges_scanned: int = 0
    edges_inspected: int = 0
    words_touched: int = 0
    directions: List[str] = field(default_factory=list)
    live_lanes: List[int] = field(default_factory=list)
    frontier_sizes: List[int] = field(default_factory=list)


class _MSWorkspace:
    """Pooled ``(n, words)`` ``uint64`` lane bitmaps for one graph.

    :dtype seen: uint64
    :dtype frontier: uint64
    :dtype next_mask: uint64
    """

    __slots__ = ("words", "seen", "frontier", "next_mask", "guard", "__weakref__")

    def __init__(self, num_vertices: int, words: int = 1) -> None:
        self.words = words
        self.seen = np.zeros((num_vertices, words), dtype=np.uint64)
        self.frontier = np.zeros((num_vertices, words), dtype=np.uint64)
        self.next_mask = np.zeros((num_vertices, words), dtype=np.uint64)
        # None unless REPRO_SANITIZE is armed at construction time.
        self.guard = sanitize.guard_if_enabled("_MSWorkspace")

    def reset(self) -> None:
        """Zero every bitmap in place (start of a new sweep)."""
        self.seen.fill(0)
        self.frontier.fill(0)
        self.next_mask.fill(0)


class _NativeWork:
    """The C lane kernel's vertex lists and per-level audit buffers.

    The ``uint64`` bitmaps stay in the per-width :class:`_MSWorkspace`;
    these buffers are width-independent, so one set serves every sweep
    of the engine.

    :dtype active: int32
    :dtype fresh: int32
    :dtype dirs: uint8
    :dtype live: int64
    :dtype sizes: int64
    :dtype out: int64
    :dtype slot: int32
    """

    __slots__ = (
        "csr",
        "active",
        "fresh",
        "dirs",
        "live",
        "sizes",
        "out",
        "slot",
    )

    def __init__(self, engine: "MSBFSEngine") -> None:
        n = engine._n
        self.csr = native.CSRView(n, engine._row_ptr, engine._col_idx)
        self.active = np.empty(n, dtype=np.int32)
        self.fresh = np.empty(n, dtype=np.int32)
        self.dirs = np.empty(n + 1, dtype=np.uint8)
        self.live = np.empty(n + 1, dtype=np.int64)
        self.sizes = np.empty(n + 1, dtype=np.int64)
        self.out = np.zeros(5, dtype=np.int64)
        # Target column of each vertex, -1 for non-targets; a sweep sets
        # its targets' entries and restores them to -1 before returning.
        self.slot = np.full(n, -1, dtype=np.int32)


def _vertex_ids(ids: Sequence[int], n: int, what: str) -> np.ndarray:
    """``ids`` as a 1-D ``int64`` array, each checked to lie in ``[0, n)``.

    The C kernel uses every id as a raw offset, so this is the check
    that keeps a bad id from reaching it.

    :dtype out: int64
    """
    out = np.ascontiguousarray(ids, dtype=np.int64)
    if out.ndim != 1:
        raise InvalidParameterError(f"{what} must be one-dimensional")
    if out.size and (out.min() < 0 or out.max() >= n):
        raise InvalidVertexError(int(out[(out < 0) | (out >= n)][0]), n)
    return out


def _lane_ecc(dist_t: np.ndarray) -> np.ndarray:
    """Per-lane eccentricity of a vertex-major distance matrix.

    :dtype dist_t: int32
    :dtype ecc: int32
    """
    return np.where(dist_t != UNREACHED, dist_t, 0).max(
        axis=0, initial=0
    ).astype(np.int32)


def _popcount(words: np.ndarray) -> int:
    """Total set bits across a small ``uint64`` word vector.

    :dtype words: uint64
    """
    return sum(bin(int(w)).count("1") for w in words)


def _unpack_lane_bits(word_rows: np.ndarray, num_lanes: int) -> np.ndarray:
    """Boolean ``(rows, num_lanes)`` view of packed lane words.

    ``word_rows`` is a C-contiguous ``(rows, words)`` ``uint64`` matrix;
    the fast path reinterprets it as bytes and unpacks all lanes in one
    ``np.unpackbits`` call.  Big-endian hosts fall back to an explicit
    shift table.

    :dtype word_rows: uint64
    """
    if _LITTLE_ENDIAN:
        bits = np.unpackbits(
            word_rows.view(np.uint8), axis=1, bitorder="little"
        )
    else:  # pragma: no cover - big-endian hosts only
        shifts = np.arange(LANE_WORD_BITS, dtype=np.uint64)
        bits = (
            ((word_rows[:, :, None] >> shifts) & np.uint64(1))
            .astype(np.uint8)
            .reshape(len(word_rows), -1)
        )
    return bits[:, :num_lanes].view(np.bool_)


class MSBFSEngine:
    """Reusable direction-optimizing MS-BFS kernel for one graph.

    One engine per graph (see :func:`msengine_for`) owns the pooled
    ``(n, words)`` bitmaps for every lane width it has run, plus the
    CSR views the level kernels index.  :meth:`run_batch` is the unit
    of work: one sweep serving up to ``MAX_LANE_WORDS * 64`` sources.

    Parameters
    ----------
    graph:
        The immutable CSR graph this engine traverses.
    alpha, beta:
        Direction-switching thresholds, defaulting to the single-source
        engine's tuned values (see :mod:`repro.graph.engine`).
    """

    __slots__ = (
        "graph",
        "alpha",
        "beta",
        "last_stats",
        "_n",
        "_arcs",
        "_row_ptr",
        "_col_idx",
        "_degrees",
        "_workspaces",
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
        self._n = graph.num_vertices
        self._row_ptr = graph.indptr
        self._col_idx = graph.indices
        self._degrees = graph.degrees
        self._arcs = int(len(graph.indices))
        # One pooled workspace per lane-word count actually used.
        self._workspaces: Dict[int, _MSWorkspace] = {}
        # Scratch for the native kernel, allocated on its first sweep.
        self._native: Optional[_NativeWork] = None
        #: Per-level audit of the last :meth:`run_batch`.
        self.last_stats: MSBFSRunStats = MSBFSRunStats()

    def _workspace(self, words: int) -> _MSWorkspace:
        """The pooled bitmap set for ``words`` lane words (lazily built)."""
        work = self._workspaces.get(words)
        if work is None:
            work = _MSWorkspace(self._n, words)
            self._workspaces[words] = work
        return work

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------
    def run_batch(
        self,
        sources: Sequence[int],
        limit: Optional[int] = None,
        counter: Optional["TraversalCounter"] = None,
        mode: str = "hybrid",
    ) -> np.ndarray:
        """Distances for up to ``MAX_LANE_WORDS * 64`` sources, one sweep.

        Returns a freshly-owned ``(len(sources), n)`` ``int32`` matrix;
        row ``i`` equals the level-synchronous BFS distances from
        ``sources[i]`` (``-1`` marks unreached vertices).  ``limit``
        truncates every lane after that many levels, matching
        ``BFSEngine.run(source, limit=...)``.  ``mode`` is ``"hybrid"``
        (direction-optimizing, the default), ``"top-down"`` or
        ``"bottom-up"`` (forced, for benchmarks and equivalence tests).

        The counter is credited with ``len(sources)`` traversal runs —
        the sweep stands in for that many BFSs — and with the sweep's
        actual arc work, so budget accounting matches the per-source
        loop it replaces.

        :dtype src: int64
        :dtype dist: int32
        """
        dist_t, _ecc, _tdist = self._sweep(sources, limit, counter, mode)
        # The sweep records vertex-major (lanes contiguous per vertex);
        # consumers get the source-major convention of the seed kernel.
        return np.ascontiguousarray(dist_t.T)

    def ecc_batch(
        self,
        sources: Sequence[int],
        counter: Optional["TraversalCounter"] = None,
        mode: str = "hybrid",
    ) -> np.ndarray:
        """Eccentricity of every source (within its component), one sweep.

        Equal to ``run_batch(sources).max(axis=1)`` with ``UNREACHED``
        treated as 0, but reduced straight off the sweep's vertex-major
        buffer — no ``(k, n)`` matrix is materialised, which makes this
        the cheapest full-batch consumer (the naive ED path).

        :dtype ecc: int32
        """
        dist_t, ecc, _tdist = self._sweep(
            sources, None, counter, mode, rows=False
        )
        return ecc if ecc is not None else _lane_ecc(dist_t)

    def probe_batch(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        counter: Optional["TraversalCounter"] = None,
        mode: str = "hybrid",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eccentricities plus the distances to ``targets``, one sweep.

        Returns ``(ecc, tdist)``: ``ecc[j]`` as :meth:`ecc_batch` gives
        it, and the freshly-owned ``(len(sources), len(targets))``
        ``int32`` matrix ``tdist[j, i] = d(sources[j], targets[i])``
        (``-1`` when unreached).  Only those columns are captured — the
        cheap probe of a solver that needs ``ecc(s)`` and the distances
        to a few still-open vertices, never the ``(k, n)`` matrix.
        ``targets`` must be distinct vertex ids; ids outside ``[0, n)``
        raise :class:`~repro.errors.InvalidVertexError` before any
        kernel runs.  Counter and trace accounting match
        :meth:`ecc_batch`.

        :dtype ecc: int32
        :dtype tdist: int32
        """
        dist_t, ecc, tdist = self._sweep(
            sources, None, counter, mode, rows=False, targets=targets
        )
        assert tdist is not None
        return (ecc if ecc is not None else _lane_ecc(dist_t)), tdist

    def _sweep(
        self,
        sources: Sequence[int],
        limit: Optional[int],
        counter: Optional["TraversalCounter"],
        mode: str,
        rows: bool = True,
        targets: Optional[Sequence[int]] = None,
    ) -> Tuple[
        Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]
    ]:
        """Validate, pick a workspace, guard-bracket the sweep.

        Returns ``(dist_t, ecc, tdist)``: the freshly-owned vertex-major
        ``(n, len(sources))`` ``int32`` distance matrix (lane ``j`` of
        row ``v`` is ``d(sources[j], v)``), the per-lane
        eccentricities, and the lane-major target columns (``None``
        unless ``targets`` is given).  The numpy kernel always returns
        ``dist_t`` and leaves ``ecc`` to the caller (``None``); the
        native kernel always returns ``ecc`` and skips ``dist_t``
        (``None``) when ``rows`` is false.

        :dtype src: int64
        :dtype tgt: int64
        """
        if mode not in ("hybrid", "top-down", "bottom-up"):
            raise InvalidParameterError(f"unknown MS-BFS mode: {mode!r}")
        if limit is not None and limit < 0:
            raise InvalidParameterError("limit must be non-negative")
        n = self._n
        src = _vertex_ids(sources, n, "sources")
        tgt = None if targets is None else _vertex_ids(targets, n, "targets")
        k = len(src)
        if k == 0:
            empty = None if tgt is None else np.empty((0, len(tgt)), np.int32)
            return np.empty((n, 0), dtype=np.int32), None, empty
        words = -(-k // LANE_WORD_BITS)
        if words > MAX_LANE_WORDS:
            raise InvalidParameterError(
                f"a lane batch holds at most "
                f"{MAX_LANE_WORDS * LANE_WORD_BITS} sources, got {k}"
            )
        work = self._workspace(words)
        guard = work.guard
        if guard is None:
            return self._sweep_impl(src, limit, counter, mode, work, rows, tgt)
        guard.begin_run()
        try:
            return self._sweep_impl(src, limit, counter, mode, work, rows, tgt)
        finally:
            guard.end_run()

    def _sweep_impl(
        self,
        src: np.ndarray,
        limit: Optional[int],
        counter: Optional["TraversalCounter"],
        mode: str,
        work: _MSWorkspace,
        rows: bool,
        tgt: Optional[np.ndarray],
    ) -> Tuple[
        Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]
    ]:
        """The sweep itself (guard bookkeeping handled by the caller).

        Runs the native kernel when it is loaded, else the numpy level
        loop; both record the same stats, counters and trace event.

        :mutates work: the lane bitmaps are zeroed and rewritten level
            by level; the sweep owns them for its duration.
        :dtype tdist: int32
        """
        kern = native.kernels()
        ecc: Optional[np.ndarray] = None
        tdist: Optional[np.ndarray] = None
        reached: Optional[int] = None
        if kern is None:
            dist_t, stats = self._levels(src, limit, mode, work)
            if tgt is not None:
                # The same columns the C kernel captures, lane-major.
                tdist = np.ascontiguousarray(dist_t[tgt].T)
        else:
            dist_t, ecc, tdist, stats, reached = self._levels_native(
                kern, src, limit, mode, work, rows, tgt
            )
        k = len(src)
        self.last_stats = stats
        if counter is not None:
            if reached is None:
                reached = int(np.count_nonzero(dist_t != UNREACHED))
            counter.record(
                stats.edges_scanned,
                reached,
                inspected=stats.edges_inspected,
            )
            counter.bfs_runs += k - 1  # the sweep stands in for k runs
        tracer = get_tracer()
        if tracer.enabled:
            # One event per sweep, assembled from the collected stats —
            # per-level emission would put sink calls on the hot path.
            tracer.event(
                "msbfs.run",
                num_sources=k,
                lane_words=work.words,
                mode=mode,
                levels=stats.levels,
                edges_scanned=stats.edges_scanned,
                edges_inspected=stats.edges_inspected,
                words_touched=stats.words_touched,
                directions=list(stats.directions),
                live_lanes=list(stats.live_lanes),
                frontier_sizes=list(stats.frontier_sizes),
            )
            tracer.metrics.ingest_msbfs_stats(stats)
        return dist_t, ecc, tdist

    def _levels_native(
        self,
        kern: "native.Kernels",
        src: np.ndarray,
        limit: Optional[int],
        mode: str,
        work: _MSWorkspace,
        rows: bool,
        tgt: Optional[np.ndarray],
    ) -> Tuple[
        Optional[np.ndarray],
        np.ndarray,
        Optional[np.ndarray],
        MSBFSRunStats,
        int,
    ]:
        """The sweep in C; same decisions and stats as :meth:`_levels`.

        Returns ``(dist_t or None, ecc, tdist or None, stats, reached)``
        where ``reached`` counts the set cells of the distance matrix.
        The lane bitmaps of ``work`` serve as the kernel's scratch.

        :dtype dist_t: int32
        :dtype ecc: int32
        :dtype tdist: int32
        """
        scratch = self._native
        if scratch is None:
            scratch = self._native = _NativeWork(self)
        k = len(src)
        dist_t = np.empty((self._n, k), dtype=np.int32) if rows else None
        ecc = np.empty(k, dtype=np.int32)
        tdist = None
        slot = scratch.slot
        if tgt is not None:
            columns = np.arange(len(tgt), dtype=np.int32)
            slot[tgt] = columns
            if not np.array_equal(slot[tgt], columns):
                slot[tgt] = -1
                raise InvalidParameterError("targets must be distinct")
            tdist = np.empty((k, len(tgt)), dtype=np.int32)
        try:
            kern.msbfs(
                work.words,
                self._n,
                scratch.csr.row_ptr_addr,
                scratch.csr.col_idx_addr,
                src.ctypes.data,
                k,
                -1 if limit is None else limit,
                native.MODE_CODES[mode],
                self.alpha,
                self.beta,
                work.seen.ctypes.data,
                work.frontier.ctypes.data,
                work.next_mask.ctypes.data,
                scratch.active.ctypes.data,
                scratch.fresh.ctypes.data,
                None if dist_t is None else dist_t.ctypes.data,
                None if tdist is None else slot.ctypes.data,
                0 if tgt is None else len(tgt),
                None if tdist is None else tdist.ctypes.data,
                ecc.ctypes.data,
                scratch.dirs.ctypes.data,
                scratch.live.ctypes.data,
                scratch.sizes.ctypes.data,
                scratch.out.ctypes.data,
            )
        finally:
            if tgt is not None:
                slot[tgt] = -1
        levels, scanned, inspected, words_touched, reached = (
            scratch.out.tolist()
        )
        stats = MSBFSRunStats(
            num_sources=k,
            lane_words=work.words,
            levels=levels,
            edges_scanned=scanned,
            edges_inspected=inspected,
            words_touched=words_touched,
            directions=[
                native.DIRECTION_NAMES[d]
                for d in scratch.dirs[:levels].tolist()
            ],
            live_lanes=scratch.live[:levels].tolist(),
            frontier_sizes=scratch.sizes[:levels].tolist(),
        )
        return dist_t, ecc, tdist, stats, reached

    def _levels(
        self,
        src: np.ndarray,
        limit: Optional[int],
        mode: str,
        work: _MSWorkspace,
    ) -> Tuple[np.ndarray, MSBFSRunStats]:
        """The numpy level loop; the reference the C kernel mirrors.

        :mutates work: the lane bitmaps are zeroed and rewritten level
            by level; the sweep owns them for its duration.
        :dtype dist_t: int32
        """
        n = self._n
        k = len(src)
        words = work.words
        # Vertex-major so per-level recording is contiguous row writes;
        # run_batch transposes once at the end.
        dist_t = np.full((n, k), UNREACHED, dtype=np.int32)
        work.reset()
        seen = work.seen
        frontier = work.frontier
        next_mask = work.next_mask
        lane_ids = np.arange(k, dtype=np.int64)
        word_idx = lane_ids // LANE_WORD_BITS
        lane_bits = np.uint64(1) << (
            lane_ids % LANE_WORD_BITS
        ).astype(np.uint64)
        np.bitwise_or.at(frontier, (src, word_idx), lane_bits)
        np.bitwise_or.at(seen, (src, word_idx), lane_bits)
        dist_t[src, lane_ids] = 0

        degrees = self._degrees
        active = np.unique(src)
        stats = MSBFSRunStats(num_sources=k, lane_words=words)
        m_frontier = int(degrees[active].sum())
        m_unvisited = self._arcs - m_frontier
        prev_m_frontier = 0
        m_checked = 0
        hybrid = mode == "hybrid"
        direction = "bu" if mode == "bottom-up" else "td"
        alpha = self.alpha
        n_over_beta = n / self.beta
        level = 0
        # The frontier rows are exactly the previous level's fresh bits,
        # so the live-lane word is maintained incrementally instead of
        # re-gathering frontier[active] every level.
        live = np.bitwise_or.reduce(frontier[active], axis=0)
        while active.size:
            if limit is not None and level >= limit:
                break
            if hybrid:
                # The single-source engine's Beamer decision, driven by
                # the lanes' aggregate arc mass: enter bottom-up only
                # while the combined frontier still grows AND its arcs
                # dominate bottom-up's actual per-level cost; return
                # top-down once the active set thins out.  A bottom-up
                # level scans every vertex still missing a *live lane*,
                # so its cost is the arc mass of the unsaturated set —
                # on high-diameter graphs (grids) that stays near the
                # whole graph long after the union-untouched mass has
                # collapsed, which is why the cheap ``m_unvisited``
                # comparison alone over-fires there.  The exact mass is
                # an O(n * W) scan, so it only runs once the two cheap
                # tests and the ``n / beta`` frontier-density bar (the
                # same bar that triggers the return to top-down) pass —
                # and, after a failed check, not again until the
                # frontier mass has doubled (on a grid the cheap tests
                # pass for hundreds of plateaued levels; re-scanning
                # each one would cost more than bottom-up ever saves).
                if direction == "td":
                    if (
                        m_frontier > prev_m_frontier
                        and m_frontier * alpha > m_unvisited
                        and len(active) >= n_over_beta
                        and m_frontier > 2 * m_checked
                    ):
                        unsaturated = (~seen & live).any(axis=1)
                        m_unsaturated = int(degrees[unsaturated].sum())
                        if m_frontier * alpha > m_unsaturated:
                            direction = "bu"
                        else:
                            m_checked = m_frontier
                elif len(active) < n_over_beta:
                    direction = "td"
            if direction == "td":
                newly, new_bits, seen_rows, arcs = self._top_down_level(
                    active, frontier, seen, next_mask
                )
                stats.edges_scanned += arcs
                stats.edges_inspected += arcs
            else:
                newly, new_bits, seen_rows, arcs = self._bottom_up_level(
                    frontier, seen, live
                )
                stats.edges_inspected += arcs
            stats.words_touched += (len(active) + arcs) * words
            if newly is None or new_bits is None or len(newly) == 0:
                break
            level += 1
            stats.directions.append(direction)
            stats.live_lanes.append(_popcount(live))
            stats.frontier_sizes.append(len(newly))
            # First-touch accounting must precede the seen update: a
            # vertex leaves the "unvisited" arc mass the first time any
            # lane reaches it.
            assert seen_rows is not None
            untouched = ~seen_rows.any(axis=1)
            m_unvisited -= int(degrees[newly[untouched]].sum())
            np.bitwise_or(seen_rows, new_bits, out=seen_rows)
            seen[newly] = seen_rows
            # Record the level: unpack the fresh words into a boolean
            # (|newly|, k) lane matrix and overwrite exactly those
            # cells.  Fresh bits are & ~seen by construction, so no
            # cell is ever written twice.
            bits = _unpack_lane_bits(new_bits, k)
            fresh_rows = dist_t[newly]
            np.copyto(fresh_rows, np.int32(level), where=bits)
            dist_t[newly] = fresh_rows
            # The frontier is exactly the fresh bits of this level:
            # clear the old active rows, write the new ones.
            frontier[active] = 0
            frontier[newly] = new_bits
            live = np.bitwise_or.reduce(new_bits, axis=0)
            prev_m_frontier = m_frontier
            m_frontier = int(degrees[newly].sum())
            active = newly
        stats.levels = level
        return dist_t, stats

    def _top_down_level(
        self,
        active: np.ndarray,
        frontier: np.ndarray,
        seen: np.ndarray,
        next_mask: np.ndarray,
    ) -> Tuple[
        Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray], int
    ]:
        """Expand every active vertex's arcs, OR-ing lane words onto
        the targets.

        Returns ``(newly, new_bits, seen_rows, arcs scanned)`` where
        ``new_bits`` row ``i`` holds the lanes that first reached
        ``newly[i]`` and ``seen_rows`` the pre-update ``seen`` words of
        ``newly`` — both fresh copies, never views of the pooled bitmap.

        :mutates next_mask: zeroed, then accumulates the OR'd words.
        """
        next_mask.fill(0)
        counts = self._degrees[active]
        arc_dst, _seg = gather_csr_arcs(
            self._row_ptr, self._col_idx, active, counts
        )
        arcs = len(arc_dst)
        if arcs == 0:
            return None, None, None, 0
        arc_masks = np.repeat(frontier[active], counts, axis=0)
        np.bitwise_or.at(next_mask, arc_dst, arc_masks)
        np.bitwise_and(next_mask, ~seen, out=next_mask)
        newly = np.flatnonzero(next_mask.any(axis=1))
        if len(newly) == 0:
            return None, None, None, arcs
        return newly, next_mask[newly].copy(), seen[newly], arcs

    def _bottom_up_level(
        self,
        frontier: np.ndarray,
        seen: np.ndarray,
        live: np.ndarray,
    ) -> Tuple[
        Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray], int
    ]:
        """Unvisited vertices OR-reduce their neighbors' frontier words.

        A candidate is any vertex with arcs that is still missing a
        *live* lane — vertices unseen only by retired lanes are never
        probed again.  Returns ``(newly, new_bits, seen_rows, arcs
        inspected)``, mirroring :meth:`_top_down_level`.
        """
        missing = (~seen & live).any(axis=1)
        cand = np.flatnonzero(missing)
        cand = cand[self._degrees[cand] > 0]
        if len(cand) == 0:
            return None, None, None, 0
        counts = self._degrees[cand]
        arc_dst, seg_starts = gather_csr_arcs(
            self._row_ptr, self._col_idx, cand, counts
        )
        # counts > 0 for every candidate, so reduceat segments are
        # non-empty and aligned with `cand`.
        reduced = np.bitwise_or.reduceat(
            frontier[arc_dst], seg_starts, axis=0
        )
        seen_cand = seen[cand]
        fresh_bits = reduced & ~seen_cand
        rows = fresh_bits.any(axis=1)
        newly = cand[rows]
        if len(newly) == 0:
            return None, None, None, len(arc_dst)
        return newly, fresh_bits[rows], seen_cand[rows], len(arc_dst)


# One engine per live graph (mirrors engine_for); the weak key means
# dropping the graph also frees every lane workspace.
_ENGINES: "weakref.WeakKeyDictionary[Graph, MSBFSEngine]" = (
    weakref.WeakKeyDictionary()
)
_ENGINES_LOCK = threading.Lock()


def msengine_for(graph: Graph) -> MSBFSEngine:
    """The cached :class:`MSBFSEngine` of ``graph`` (created on first use).

    Serialized like :func:`repro.graph.engine.engine_for`: threads
    racing the first sweep share one engine and one set of pooled
    bitmaps per lane width.
    """
    with _ENGINES_LOCK:
        engine = _ENGINES.get(graph)
        if engine is None:
            engine = MSBFSEngine(graph)
            _ENGINES[graph] = engine
    return engine


def batch_distance_rows(
    graph: Graph,
    sources: Sequence[int],
    counter: Optional["TraversalCounter"] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Full distance vectors for many sources — the planned batch path.

    The one entry point every in-process batch consumer shares:
    duplicates are deduplicated onto a single lane (each still credited
    as one traversal run, matching the per-source loop), then
    :func:`plan_lane_width` picks lane sweeps or the serial
    single-source hybrid engine.  Row ``i`` of the returned (or filled)
    ``(len(sources), n)`` ``int32`` matrix equals
    ``bfs_distances(graph, sources[i])`` bit for bit under every plan.

    :mutates out: overwritten with the distance rows when provided.
    :dtype src: int64
    :dtype rows: int32
    """
    n = graph.num_vertices
    src = np.ascontiguousarray(sources, dtype=np.int64)
    if src.size and (src.min() < 0 or src.max() >= n):
        bad = src[(src < 0) | (src >= n)][0]
        raise InvalidVertexError(int(bad), n)
    k = len(src)
    if out is None:
        out = np.empty((k, n), dtype=np.int32)
    if k == 0:
        return out
    uniq, inverse = np.unique(src, return_inverse=True)
    if len(uniq) == k:
        _fill_rows(graph, src, out, counter)
    else:
        # Duplicate sources share one pooled lane; their rows are
        # expanded afterwards and each duplicate still counts as a run.
        rows = np.empty((len(uniq), n), dtype=np.int32)
        _fill_rows(graph, uniq, rows, counter)
        np.take(rows, inverse, axis=0, out=out)
        if counter is not None:
            counter.bfs_runs += k - len(uniq)
    return out


def _fill_rows(
    graph: Graph,
    src: np.ndarray,
    out: np.ndarray,
    counter: Optional["TraversalCounter"],
) -> None:
    """Fill ``out`` with one distance row per (distinct) source.

    :mutates out: row ``i`` is overwritten with ``dist(src[i], .)``.
    """
    width = plan_lane_width(int(len(graph.indices)), len(src))
    if width == 0:
        engine = engine_for(graph)
        for i in range(len(src)):
            # reprolint: disable=R9 (slice-assign copies the loaned row)
            out[i, :] = engine.run(int(src[i]), counter=counter)
        return
    ms = msengine_for(graph)
    for start in range(0, len(src), width):
        batch = src[start: start + width]
        out[start: start + len(batch)] = ms.run_batch(
            batch, counter=counter
        )
