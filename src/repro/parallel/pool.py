"""Thread fan-out of batched traversals over one graph.

A :class:`TraversalPool` splits a batch of sources into contiguous
chunks and runs them on ``workers`` threads over the caller's own
graph.  The threads share the CSR read-only, so nothing is copied; each
task builds its own :class:`~repro.graph.engine.BFSEngine` or
:class:`~repro.graph.msengine.MSBFSEngine` and drops it when done, so
no workspace is shared either.  The native kernels release the GIL for
a whole sweep, which is what lets the threads overlap.

Results are bit-identical to the serial path.  The parent plans the
lane width over the *whole* batch exactly as the serial router does,
and chunk boundaries are multiples of it, so the tasks run the serial
sweeps, only on different threads.  Each task writes its slice of one
caller-owned result array and counts into a private
:class:`~repro.counters.TraversalCounter`; the parent merges those in
task order, so totals and history match the serial run too.

Telemetry
---------
The tracer is process-global with one span stack, so a task never
writes to it.  Every task runs under a private tracer installed for
its thread only (:func:`repro.obs.trace.thread_tracing`).  When the
caller is tracing, that tracer buffers a ``parallel.task`` span and the
engine events inside it, plus a metrics registry.  The parent replays
the buffers in task order under its ``parallel.batch`` span via
:meth:`repro.obs.trace.Tracer.emit_foreign`, which stamps ``worker=``
on every event, and folds the metrics in with
:meth:`repro.obs.metrics.MetricsRegistry.merge_snapshot`.  Run records
are therefore deterministic; only the ``worker=`` tag depends on
scheduling.

A task that raises fails the whole batch with
:class:`~repro.errors.ParallelBackendError` carrying its traceback; the
pool stays usable.  Single probes never come here: one BFS is cheaper
than a thread hand-off, so the solver's sequential loop stays on the
caller's engine.
"""

from __future__ import annotations

import os
import queue
import threading
import traceback
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.counters import TraversalCounter
from repro.errors import (
    InvalidParameterError,
    InvalidVertexError,
    ParallelBackendError,
)
from repro.graph.engine import BFSEngine
from repro.graph.msengine import MSBFSEngine, plan_lane_width
from repro.obs.trace import (
    Event,
    MemorySink,
    Stopwatch,
    Tracer,
    get_tracer,
    thread_tracing,
)
from repro.sentinels import UNREACHED

__all__ = [
    "TraversalPool",
    "pool_for",
    "shutdown_pools",
    "resolve_workers",
]

#: Load-balancing granularity: each dispatch is split into about this
#: many chunks per worker, so a straggler chunk idles at most ~1/4 of
#: one worker's share instead of half the batch.
_CHUNKS_PER_WORKER = 4


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` request: ``None`` means all usable cores."""
    if workers is None:
        try:
            available = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            available = os.cpu_count() or 1
        return max(1, available)
    if int(workers) < 1:
        raise InvalidParameterError("workers must be >= 1")
    return int(workers)


def _fill(
    kind: str,
    graph: Any,
    sources: np.ndarray,
    out: np.ndarray,
    counter: TraversalCounter,
    width: int,
) -> None:
    """One task's traversals, written into its slice of the result.

    ``"ecc"``/``"dist"`` group ``sources`` into sweeps of the
    parent-planned ``width`` (0: the single-source loop), as the serial
    routers do.  ``"dfwd"``/``"dbwd"`` are directed distance rows and
    ``"decc"`` forward eccentricities, with ``-1`` marking a source that
    does not reach every vertex.

    :mutates out: entry or row ``i`` receives source ``i``'s result.
    """
    if kind in ("ecc", "dist"):
        if width == 0:
            engine = BFSEngine(graph)
            for i in range(len(sources)):
                dist = engine.run(int(sources[i]), counter=counter)
                if kind == "ecc":
                    out[i] = engine.last_ecc
                else:
                    # reprolint: disable=R9 (slice-assign copies the loaned row)
                    out[i, :] = dist
            return
        lanes = MSBFSEngine(graph)
        sweep: Callable[..., np.ndarray] = (
            lanes.ecc_batch if kind == "ecc" else lanes.run_batch
        )
        for start in range(0, len(sources), width):
            group = sources[start: start + width]
            out[start: start + len(group)] = sweep(group, counter=counter)
        return
    if kind not in ("dfwd", "dbwd", "decc"):
        raise InvalidParameterError(f"unknown task kind {kind!r}")
    # directed.traversal imports this module for its oracle.
    from repro.directed.traversal import backward_bfs, forward_bfs

    bfs = backward_bfs if kind == "dbwd" else forward_bfs
    for i in range(len(sources)):
        dist = bfs(graph, int(sources[i]), counter=counter)
        if kind != "decc":
            out[i, :] = dist
        elif len(dist) > 1 and bool(np.any(dist == UNREACHED)):
            out[i] = -1
        else:
            out[i] = int(dist.max())


@dataclass
class _Outcome:
    """What one task hands back to the dispatching thread."""

    worker: int
    counter: TraversalCounter
    seconds: float
    events: Optional[List[Event]] = None
    metrics: Optional[Dict[str, Any]] = None
    error: str = ""


def _run_task(
    kind: str,
    task_id: int,
    size: int,
    worker: int,
    run: Callable[[int, TraversalCounter], None],
    traced: bool,
) -> _Outcome:
    """Run one task under a private tracer; never raises."""
    counter = TraversalCounter()
    watch = Stopwatch()
    sink = MemorySink() if traced else None
    tracer = Tracer(sink)
    try:
        with thread_tracing(tracer), tracer.span(
            "parallel.task", kind=kind, task=task_id, num_sources=size
        ):
            run(task_id, counter)
    except Exception:  # noqa: BLE001 - reported by the dispatcher
        return _Outcome(
            worker,
            counter,
            watch.elapsed(),
            error=f"task {task_id} (worker {worker}):\n"
            + traceback.format_exc(),
        )
    return _Outcome(
        worker,
        counter,
        watch.elapsed(),
        events=sink.events if sink is not None else None,
        metrics=tracer.metrics.snapshot() if traced else None,
    )


class TraversalPool:
    """``workers`` threads fanning batches out over one graph.

    Parameters
    ----------
    graph:
        The (immutable) graph to traverse.  The pool holds it weakly,
        so a pool in the :func:`pool_for` registry never pins its graph
        alive.
    workers:
        Thread count; ``None`` uses every usable core.
    """

    def __init__(self, graph: Any, workers: Optional[int] = None) -> None:
        self.workers = resolve_workers(workers)
        self.num_vertices = graph.num_vertices
        self.directed = hasattr(graph, "forward_view")
        self.num_arcs = int(
            graph.num_arcs if self.directed else len(graph.indices)
        )
        self._graph = weakref.ref(graph)
        self.closed = False

    def close(self) -> None:
        """Refuse further batches (idempotent; nothing else to release)."""
        self.closed = True

    def __enter__(self) -> "TraversalPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- dispatch -------------------------------------------------------
    def _check_sources(self, sources: Optional[Sequence[int]]) -> np.ndarray:
        """Validated int64 source array; every vertex when ``None``.

        :dtype src: int64
        """
        if sources is None:
            return np.arange(self.num_vertices, dtype=np.int64)
        src = np.ascontiguousarray(sources, dtype=np.int64)
        if src.ndim != 1:
            raise InvalidParameterError("sources must be one-dimensional")
        if src.size and (src.min() < 0 or src.max() >= self.num_vertices):
            bad = src[(src < 0) | (src >= self.num_vertices)][0]
            raise InvalidVertexError(int(bad), self.num_vertices)
        return src

    def _graph_or_raise(self) -> Any:
        if self.closed:
            raise ParallelBackendError("pool is closed")
        graph = self._graph()
        if graph is None:
            raise ParallelBackendError("the pool's graph no longer exists")
        return graph

    def _dispatch(
        self,
        kind: str,
        src: np.ndarray,
        row_shape: Tuple[int, ...],
        dtype: str,
        counter: Optional[TraversalCounter],
        width: int = 0,
    ) -> np.ndarray:
        """Fan one batch out; return a caller-owned result array.

        ``row_shape`` is the per-source result shape: ``()`` for one
        eccentricity per source, ``(n,)`` for a distance row.  Chunks
        are rounded up to a multiple of ``width`` so none splits a
        sweep.
        """
        graph = self._graph_or_raise()
        result = np.empty((len(src),) + row_shape, dtype=np.dtype(dtype))
        if len(src) == 0:
            return result
        size = -(-len(src) // (self.workers * _CHUNKS_PER_WORKER))
        if width > 1:
            size = -(-size // width) * width
        starts = list(range(0, len(src), size))

        def run(task_id: int, task_counter: TraversalCounter) -> None:
            start = starts[task_id]
            _fill(
                kind,
                graph,
                src[start: start + size],
                result[start: start + size],
                task_counter,
                width,
            )

        sizes = [min(size, len(src) - start) for start in starts]
        self._fan_out(kind, sizes, run, counter)
        return result

    def _fan_out(
        self,
        kind: str,
        sizes: List[int],
        run: Callable[[int, TraversalCounter], None],
        counter: Optional[TraversalCounter],
    ) -> None:
        """Run ``run(task_id, counter)`` for every task on the threads.

        Emits one ``parallel.batch`` span, replays the tasks' telemetry
        under it in task order, and merges their counters into
        ``counter``.  Raises :class:`ParallelBackendError` with every
        failed task's traceback.
        """
        tracer = get_tracer()
        traced = tracer.enabled
        outcomes: List[Optional[_Outcome]] = [None] * len(sizes)
        todo: "queue.SimpleQueue[int]" = queue.SimpleQueue()
        for task_id in range(len(sizes)):
            todo.put(task_id)
        stop = threading.Event()

        def serve(worker: int) -> None:
            while not stop.is_set():
                try:
                    task_id = todo.get_nowait()
                except queue.Empty:
                    return
                outcome = _run_task(
                    kind, task_id, sizes[task_id], worker, run, traced
                )
                outcomes[task_id] = outcome
                if outcome.error:
                    stop.set()

        with tracer.span(
            "parallel.batch",
            kind=kind,
            workers=self.workers,
            num_sources=sum(sizes),
            chunks=sizes,
        ) as span:
            threads = [
                threading.Thread(
                    target=serve,
                    args=(worker,),
                    name=f"repro-traversal-{worker}",
                    daemon=True,
                )
                for worker in range(min(self.workers, len(sizes)))
            ]
            for thread in threads:
                thread.start()
            try:
                for thread in threads:
                    thread.join()
            finally:
                stop.set()
            done = [outcome for outcome in outcomes if outcome is not None]
            failures = [outcome.error for outcome in done if outcome.error]
            if failures or len(done) < len(sizes):
                raise ParallelBackendError(
                    "parallel dispatch failed:\n"
                    + ("\n".join(failures) or "a worker thread exited early")
                )
            merged = TraversalCounter()
            worker_seconds: Dict[str, float] = {}
            for outcome in done:
                merged.merge(outcome.counter)
                key = f"w{outcome.worker}"
                worker_seconds[key] = (
                    worker_seconds.get(key, 0.0) + outcome.seconds
                )
                if outcome.events:
                    tracer.emit_foreign(
                        outcome.events,
                        parent=tracer.active_span_seq(),
                        worker=outcome.worker,
                    )
                if outcome.metrics:
                    tracer.metrics.merge_snapshot(outcome.metrics)
            if counter is not None:
                counter.merge(merged)
            span.set(
                tasks=len(sizes),
                traversals=merged.bfs_runs,
                edges_scanned=merged.edges_scanned,
                edges_inspected=merged.edges_inspected,
                worker_seconds=worker_seconds,
            )

    # -- batched entry points ------------------------------------------
    def eccentricities(
        self,
        sources: Optional[Sequence[int]] = None,
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """Per-source eccentricities (within components), fanned out.

        ``sources=None`` means every vertex — the naive full-ED sweep.
        Bit-identical to :meth:`repro.graph.engine.BFSEngine.ecc_batch`
        over the same sources.

        :dtype ecc: int32
        """
        src = self._check_sources(sources)
        width = plan_lane_width(self.num_arcs, len(src))
        return self._dispatch("ecc", src, (), "int32", counter, width)

    def distance_rows(
        self,
        sources: Sequence[int],
        counter: Optional[TraversalCounter] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Full distance vectors, one row per source.

        Bit-identical to :func:`repro.graph.msengine.batch_distance_rows`,
        duplicate handling included: duplicates share one traversal and
        each still counts as a run.  With ``out`` given (a preallocated
        ``(len(sources), n)`` int32 array) the rows land in it and it is
        returned.

        :mutates out: overwritten with the distance rows.
        :dtype rows: int32
        """
        src = self._check_sources(sources)
        uniq, inverse = np.unique(src, return_inverse=True)
        distinct = src if len(uniq) == len(src) else uniq
        width = plan_lane_width(self.num_arcs, len(distinct))
        rows = self._dispatch(
            "dist", distinct, (self.num_vertices,), "int32", counter, width
        )
        if distinct is uniq:
            rows = rows[inverse]
            if counter is not None:
                counter.bfs_runs += len(src) - len(uniq)
        if out is None:
            return rows
        out[...] = rows
        return out

    # -- directed entry points -----------------------------------------
    def _require_directed(self) -> None:
        if not self.directed:
            raise ParallelBackendError(
                "this pool serves an undirected graph; directed "
                "dispatch needs a DirectedGraph pool"
            )

    def directed_eccentricities(
        self,
        sources: Optional[Sequence[int]] = None,
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """Forward eccentricities, one forward BFS per source.

        An entry of ``-1`` marks a source that does not reach every
        vertex — the caller decides whether that is a
        ``DisconnectedGraphError`` (exact ED) or fine (per-SCC use).

        :dtype ecc: int32
        """
        self._require_directed()
        return self._dispatch(
            "decc", self._check_sources(sources), (), "int32", counter
        )

    def directed_distance_rows(
        self,
        sources: Sequence[int],
        direction: str = "forward",
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """Distance rows along (``"forward"``) or against
        (``"backward"``) arc directions.

        Row ``i`` is ``dist(sources[i], .)`` forward, ``dist(.,
        sources[i])`` backward — exactly :func:`repro.directed.
        traversal.forward_bfs` / ``backward_bfs`` per source.

        :dtype rows: int32
        """
        self._require_directed()
        if direction not in ("forward", "backward"):
            raise InvalidParameterError(
                f"direction must be 'forward' or 'backward', "
                f"got {direction!r}"
            )
        kind = "dfwd" if direction == "forward" else "dbwd"
        return self._dispatch(
            kind,
            self._check_sources(sources),
            (self.num_vertices,),
            "int32",
            counter,
        )

    def directed_probe_pair(
        self,
        source: int,
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """The forward and backward BFS from ``source``, run concurrently.

        Returns a ``(2, n)`` matrix: row 0 is ``dist(source, .)``
        (forward), row 1 ``dist(., source)`` (backward).  This is the
        :class:`repro.directed.traversal.DirectedBFSOracle` source-probe
        unit.

        :dtype rows: int32
        """
        self._require_directed()
        src = self._check_sources([source])
        graph = self._graph_or_raise()
        rows = np.empty((2, self.num_vertices), dtype=np.int32)

        def run(task_id: int, task_counter: TraversalCounter) -> None:
            kind = "dbwd" if task_id else "dfwd"
            _fill(
                kind, graph, src, rows[task_id: task_id + 1], task_counter, 0
            )

        self._fan_out("dprobe", [1, 1], run, counter)
        return rows


# ---------------------------------------------------------------------------
# Per-graph registry (mirrors engine_for)
# ---------------------------------------------------------------------------
_POOLS: "weakref.WeakKeyDictionary[Any, TraversalPool]" = (
    weakref.WeakKeyDictionary()
)
_POOLS_LOCK = threading.Lock()


def pool_for(graph: Any, workers: Optional[int] = None) -> TraversalPool:
    """The cached :class:`TraversalPool` of ``graph`` (created on demand).

    A cached pool is reused when ``workers`` is ``None`` or matches its
    size; a mismatching request closes the old pool and caches a fresh
    one.
    """
    with _POOLS_LOCK:
        pool = _POOLS.get(graph)
        if pool is not None and not pool.closed:
            if workers is None or pool.workers == resolve_workers(workers):
                return pool
            pool.close()
        pool = TraversalPool(graph, workers=workers)
        _POOLS[graph] = pool
    return pool


def shutdown_pools() -> None:
    """Close every cached pool and empty the registry."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.close()
