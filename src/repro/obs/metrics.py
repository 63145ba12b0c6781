"""Counters, gauges, and fixed-bucket histograms for solver telemetry.

Where the event stream of :mod:`repro.obs.trace` itemises *what
happened*, this registry aggregates *how much*: total traversals, arcs
scanned vs. inspected, the decaying remaining-unresolved gauge, the
frontier-size distribution.  The two existing accounting structures feed
it directly — :meth:`MetricsRegistry.ingest_traversal_counter` folds a
:class:`repro.counters.TraversalCounter` in, and
:meth:`MetricsRegistry.ingest_run_stats` folds a
:class:`repro.graph.engine.BFSRunStats` — so Figure 8-style work tables
and Table 2-style probe curves come out of one
:meth:`MetricsRegistry.snapshot` call.

Instruments are fixed-cost and allocation-free on the hot path: a
counter increment is one int add, a histogram observation one bisect
into a *fixed* bucket list chosen at creation (no dynamic rebinning, so
observing is O(log #buckets) and snapshots are comparable across runs).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.counters import TraversalCounter
    from repro.graph.engine import BFSRunStats
    from repro.graph.msengine import MSBFSRunStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SIZE_BUCKETS",
    "LANE_WIDTH_BUCKETS",
    "DIRECTION_SWITCH_BUCKETS",
]

#: Power-of-two upper bounds for size-ish histograms (frontier sizes,
#: arcs per traversal).  Fixed so snapshots from different runs (or
#: different machines) land in comparable buckets.
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = tuple(
    float(2**i) for i in range(0, 31, 2)
)

#: The MS-BFS engine's only legal lane widths (1/2/4 uint64 words).
#: One bucket per width keeps the ``msbfs.lane_width`` histogram an
#: exact tally of which plan the width heuristic picked per sweep.
LANE_WIDTH_BUCKETS: Tuple[float, ...] = (64.0, 128.0, 256.0)

#: Upper edges for per-sweep top-down/bottom-up direction flips.  A
#: sweep that never leaves top-down lands in the 0 bucket; the paper's
#: direction-optimizing traversals typically flip twice (td→bu→td).
DIRECTION_SWITCH_BUCKETS: Tuple[float, ...] = (
    0.0,
    1.0,
    2.0,
    4.0,
    8.0,
    16.0,
)


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins instantaneous value (plus its extremes)."""

    __slots__ = ("name", "value", "min", "max", "_touched")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.min = 0.0
        self.max = 0.0
        self._touched = False

    def set(self, value: float) -> None:
        self.value = value
        if not self._touched:
            self.min = self.max = value
            self._touched = True
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "gauge",
            "value": self.value,
            "min": self.min,
            "max": self.max,
        }


class Histogram:
    """Fixed-bucket histogram: counts of observations per upper bound.

    ``bounds`` are inclusive upper edges in increasing order; one
    overflow bucket catches everything above the last edge.  The bucket
    layout never changes after construction, so two snapshots of the
    same metric are always bucket-for-bucket comparable.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_SIZE_BUCKETS
    ) -> None:
        edges = [float(b) for b in bounds]
        if not edges or sorted(edges) != edges:
            raise ValueError("histogram bounds must be non-empty, increasing")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(edges)
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    def observe_many(self, values: Sequence[int]) -> None:
        """Observe each of ``values`` (integers) in one call.

        The per-run feeds hand over a whole run's per-level sizes at
        once, so a deep traversal costs one call instead of one per
        level.  Integer sums are exact, so this equals calling
        :meth:`observe` per value.
        """
        counts = self.counts
        bounds = self.bounds
        for value in values:
            counts[bisect_left(bounds, value)] += 1
        self.total += len(values)
        self.sum += sum(values)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Name-addressed instruments with a JSON-ready snapshot.

    ``counter``/``gauge``/``histogram`` get-or-create, so call sites
    never coordinate registration — the first toucher defines the
    instrument and everyone else accumulates into it.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # ingest_run_stats runs once per traversal; resolving its six
        # counters plus the frontier histogram through f-strings every
        # call is measurable there, so the handle tuple is cached per
        # prefix (instruments are never removed, so handles stay valid).
        self._run_stats_handles: Dict[
            str, Tuple[Counter, Counter, Counter, Counter, Counter, Counter,
                       Histogram]
        ] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(
        self,
        name: str,
        bounds: Optional[Sequence[float]] = None,
    ) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(
                name, bounds if bounds is not None else DEFAULT_SIZE_BUCKETS
            )
        return inst

    # ---------------------------------------------------------- feeds
    def ingest_traversal_counter(
        self, counter: "TraversalCounter", prefix: str = "traversal"
    ) -> None:
        """Fold a :class:`repro.counters.TraversalCounter` total in.

        Call once per finished run (the counter itself is cumulative);
        repeated ingestion double-counts by design, matching
        ``TraversalCounter.merge``.
        """
        self.counter(f"{prefix}.runs").inc(counter.bfs_runs)
        self.counter(f"{prefix}.edges_scanned").inc(counter.edges_scanned)
        self.counter(f"{prefix}.edges_inspected").inc(counter.edges_inspected)
        self.counter(f"{prefix}.vertices_visited").inc(
            counter.vertices_visited
        )
        self.counter(f"{prefix}.relaxations").inc(counter.relaxations)
        self.counter(f"{prefix}.speculative_lanes").inc(
            counter.speculative_lanes
        )

    def ingest_run_stats(
        self, stats: "BFSRunStats", prefix: str = "bfs"
    ) -> None:
        """Fold one BFS run's :class:`~repro.graph.engine.BFSRunStats` in."""
        handles = self._run_stats_handles.get(prefix)
        if handles is None:
            handles = self._run_stats_handles[prefix] = (
                self.counter(f"{prefix}.runs"),
                self.counter(f"{prefix}.levels"),
                self.counter(f"{prefix}.edges_scanned"),
                self.counter(f"{prefix}.edges_inspected"),
                self.counter(f"{prefix}.levels_bottom_up"),
                self.counter(f"{prefix}.levels_top_down"),
                self.histogram(f"{prefix}.frontier_size"),
            )
        runs, levels, scanned, inspected, bu, td, frontier = handles
        runs.inc()
        levels.inc(stats.levels)
        scanned.inc(stats.edges_scanned)
        inspected.inc(stats.edges_inspected)
        bottom_up = stats.directions.count("bu")
        bu.inc(bottom_up)
        td.inc(len(stats.directions) - bottom_up)
        frontier.observe_many(stats.frontier_sizes)

    def ingest_msbfs_stats(
        self, stats: "MSBFSRunStats", prefix: str = "msbfs"
    ) -> None:
        """Fold one multi-source sweep's
        :class:`~repro.graph.msengine.MSBFSRunStats` in.

        ``{prefix}.runs`` counts sweeps, ``{prefix}.sources`` the
        traversals they stood in for — their ratio is the batching
        factor the lane engine achieved.
        """
        self.counter(f"{prefix}.runs").inc()
        self.counter(f"{prefix}.sources").inc(stats.num_sources)
        self.counter(f"{prefix}.levels").inc(stats.levels)
        self.counter(f"{prefix}.edges_scanned").inc(stats.edges_scanned)
        self.counter(f"{prefix}.edges_inspected").inc(stats.edges_inspected)
        self.counter(f"{prefix}.words_touched").inc(stats.words_touched)
        bottom_up = stats.directions.count("bu")
        self.counter(f"{prefix}.levels_bottom_up").inc(bottom_up)
        self.counter(f"{prefix}.levels_top_down").inc(
            len(stats.directions) - bottom_up
        )
        self.histogram(f"{prefix}.live_lanes").observe_many(stats.live_lanes)
        self.histogram(f"{prefix}.frontier_size").observe_many(
            stats.frontier_sizes
        )
        self.histogram(f"{prefix}.lane_width", LANE_WIDTH_BUCKETS).observe(
            stats.lane_words * 64
        )
        switches = sum(
            1
            for before, after in zip(stats.directions, stats.directions[1:])
            if before != after
        )
        self.histogram(
            f"{prefix}.direction_switches", DIRECTION_SWITCH_BUCKETS
        ).observe(switches)

    # ---------------------------------------------------------- merge
    def merge_snapshot(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The metrics half of worker span propagation: each traversal
        pool task accumulates metrics into a private registry, hands
        its snapshot back with the task result, and the dispatching
        thread merges every delta here.  Counters add; gauges replay ``min``/``max``/
        ``value`` (last write wins, extremes survive); histograms add
        bucket-for-bucket and refuse a bound mismatch — fixed layouts
        are the comparability contract, so a mismatch means the two
        sides disagree about the instrument and silently re-binning
        would corrupt both.
        """
        for name, data in snapshot.items():
            kind = data.get("type")
            if kind == "counter":
                self.counter(name).inc(int(data["value"]))
            elif kind == "gauge":
                gauge = self.gauge(name)
                gauge.set(float(data["min"]))
                gauge.set(float(data["max"]))
                gauge.set(float(data["value"]))
            elif kind == "histogram":
                bounds = tuple(float(b) for b in data["bounds"])
                hist = self.histogram(name, bounds)
                if hist.bounds != bounds:
                    raise ValueError(
                        f"histogram {name!r}: incoming bounds {bounds} "
                        f"do not match existing {hist.bounds}"
                    )
                for i, count in enumerate(data["counts"]):
                    hist.counts[i] += int(count)
                hist.total += int(data["total"])
                hist.sum += float(data["sum"])
            else:
                raise ValueError(
                    f"unknown instrument type {kind!r} for {name!r}"
                )

    # ------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All instruments as one JSON-serialisable mapping."""
        out: Dict[str, Dict[str, Any]] = {}
        for family in (self._counters, self._gauges, self._histograms):
            for name, inst in sorted(family.items()):
                out[name] = inst.snapshot()
        return out
