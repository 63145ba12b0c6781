"""Persistent per-graph worker pool for batched traversal dispatch.

This is the engine room of the ``backend="process"`` seam: a
:class:`TraversalPool` owns ``W`` long-lived worker processes that each
attach the graph published by :mod:`repro.parallel.shm` (a ``.rcsr``
store file or the same container image in a shared-memory segment) and
build one pooled :class:`repro.graph.engine.BFSEngine` at startup (the
warm-up), so every subsequent batch pays only task pickling — never
graph transfer, never workspace allocation.

Dispatch protocol
-----------------
Batched entry points (:meth:`TraversalPool.eccentricities`,
:meth:`~TraversalPool.distance_rows`, the MS-BFS lane-group variants)
split their sources into contiguous chunks, write-target them into one
shared *result* segment, and enqueue ``(kind, task_id, sources, out,
start, width, traced)`` tuples.  Workers fill their slice of the
result segment directly — gathering is by construction ordered, the
parent never reassembles out-of-order pickles — and reply with their
:class:`repro.counters.TraversalCounter` totals plus wall-clock
seconds.  The parent merges the totals into the caller's counter and
emits one ``parallel.batch`` obs span per dispatch carrying chunk
sizes and per-worker timings.

When the parent's tracer is live, ``traced`` rides along in every
task: the worker runs it under a private buffering tracer (a
``parallel.task`` span wrapping the traversal spans the kernels emit)
and piggybacks the captured events plus its per-task metrics snapshot
on the ``done`` reply.  The parent replays them in task order via
:meth:`repro.obs.trace.Tracer.emit_foreign` — seqs remapped into its
own sequence space, worker-side roots adopted by the owning
``parallel.batch`` span, every event stamped with ``worker=`` — and
folds the metric deltas in with
:meth:`repro.obs.metrics.MetricsRegistry.merge_snapshot`.  A
``workers=N`` run therefore produces one merged run record with
correct causal nesting; only task→worker assignment (the ``worker=``
tag) is scheduling-dependent.

Results are bit-identical to the in-process numpy engine: workers run
the very same :class:`BFSEngine` kernel on the very same frozen CSR
bytes, and chunking never reorders the per-source outputs.

Lifecycle
---------
Pools are cached weakly per graph (:func:`pool_for`, mirroring
``engine_for``) and torn down on four paths: explicit :meth:`close`,
garbage collection of the pool (a ``weakref.finalize``), interpreter
exit (``atexit`` → :func:`shutdown_pools`), and parent death (workers
are daemons; they also translate ``SIGTERM`` into a clean
``SystemExit`` so their ``finally`` blocks close attached segments).
Segment names created here are additionally covered by the stdlib
resource tracker, so even a hard-killed parent leaks no shared memory.
A worker that dies (say, SIGKILLed) closes the pool: the next dispatch
raises :class:`~repro.errors.ParallelBackendError`, and :func:`pool_for`
then starts a fresh pool.

Single probes never cross the process boundary — one BFS is far
cheaper than its IPC round-trip — which is why the solver's sequential
sweep path stays on the in-process engine (see
:class:`repro.parallel.oracle.ParallelBFSOracle`).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import weakref
from types import FrameType
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.counters import TraversalCounter
from repro.errors import (
    InvalidParameterError,
    InvalidVertexError,
    ParallelBackendError,
)
from repro.obs.trace import Stopwatch, get_tracer
from repro.parallel import shm as shm_mod

__all__ = [
    "TraversalPool",
    "pool_for",
    "shutdown_pools",
    "resolve_workers",
    "DEFAULT_CHUNKS_PER_WORKER",
]

#: Load-balancing granularity: each dispatch is split into about this
#: many chunks per worker, so a straggler chunk idles at most ~1/4 of
#: one worker's share instead of half the batch.
DEFAULT_CHUNKS_PER_WORKER = 4

#: MS-BFS lane width — lane-group tasks are cut to this size so each
#: task is exactly one bit-parallel sweep.
_LANES = 64

#: Seconds between liveness checks while waiting on worker results.
_POLL_SECONDS = 0.25

#: Seconds to wait for worker startup/ready handshakes.
_STARTUP_TIMEOUT = 60.0


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


def _mp_context() -> Any:
    """Fork where available (cheap, COW pages), spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _counter_totals(counter: TraversalCounter) -> Dict[str, int]:
    """The mergeable scalar fields of a worker-side counter."""
    return {
        "bfs_runs": counter.bfs_runs,
        "edges_scanned": counter.edges_scanned,
        "edges_inspected": counter.edges_inspected,
        "vertices_visited": counter.vertices_visited,
        "relaxations": counter.relaxations,
    }


def _sigterm_to_exit(signum: int, frame: Optional[FrameType]) -> None:
    """Worker SIGTERM handler: unwind via ``finally`` blocks, not abort."""
    raise SystemExit(0)


def _fill_distance_rows(
    graph: Any,
    engine: Any,
    sources: np.ndarray,
    rows: np.ndarray,
    counter: TraversalCounter,
    width: int,
) -> None:
    """Distance rows for a chunk, grouped exactly as the serial path.

    ``width`` is the lane width the *parent* planned for the whole
    batch; grouping by it (instead of re-planning on the chunk size)
    keeps worker-side sweep boundaries — and therefore counter totals —
    identical to the in-process :func:`repro.graph.msengine.
    batch_distance_rows` over the same sources.  ``width == 0`` means
    the serial plan chose the single-source loop.

    :mutates rows: row ``i`` is overwritten with ``dist(sources[i], .)``.
    """
    if width == 0:
        for i in range(len(sources)):
            rows[i, :] = engine.run(int(sources[i]), counter=counter)
        return
    from repro.graph.msengine import msengine_for

    ms = msengine_for(graph)
    for start in range(0, len(sources), width):
        group = sources[start: start + width]
        rows[start: start + len(group)] = ms.run_batch(
            group, counter=counter
        )


def _fill_eccentricities(
    graph: Any,
    engine: Any,
    sources: np.ndarray,
    out: np.ndarray,
    counter: TraversalCounter,
    width: int,
) -> None:
    """Eccentricities for a chunk, grouped exactly as the serial path.

    Same parent-planned-``width`` contract as :func:`_fill_distance_rows`
    (see there); the MS engine reduces each sweep straight to
    eccentricities without materialising the distance matrix.

    :mutates out: ``out[i]`` is overwritten with ``ecc(sources[i])``.
    """
    if width == 0:
        for i in range(len(sources)):
            engine.run(int(sources[i]), counter=counter)
            out[i] = engine.last_ecc
        return
    from repro.graph.msengine import msengine_for

    ms = msengine_for(graph)
    for start in range(0, len(sources), width):
        group = sources[start: start + width]
        out[start: start + len(group)] = ms.ecc_batch(
            group, counter=counter
        )


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
def _worker_main(
    spec: "shm_mod.SharedGraphSpec",
    task_queue: Any,
    result_queue: Any,
    worker_id: int,
) -> None:
    """One worker: attach the shared graph, warm an engine, serve tasks.

    All state is function-local on purpose — a worker is a loop over
    its queues, not a module with shared globals.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, _sigterm_to_exit)
    # A forked worker inherits the parent's active tracer (and possibly
    # its memory sink); that inherited tracer is replaced outright.
    # When the parent dispatches a traced batch, each task runs under a
    # private buffering tracer instead, and its events/metrics ride
    # back on the result channel for the parent to re-emit (see
    # TraversalPool._emit_task_telemetry).
    from repro.graph.msbfs import lane_batch_distances
    from repro.obs.trace import MemorySink, Tracer, set_tracer
    from repro.sentinels import UNREACHED

    set_tracer(Tracer())
    graph, graph_segment = shm_mod.attach(spec)
    directed = hasattr(graph, "forward_view")
    if directed:
        # Directed tasks run the dual-CSR BFS kernels; the undirected
        # engine would choke on the DirectedGraph's missing attributes.
        from repro.directed.traversal import backward_bfs, forward_bfs

        engine: Any = None
    else:
        from repro.graph.engine import BFSEngine

        engine = BFSEngine(graph)
    out_segment: Optional[Any] = None
    out_name = ""
    try:
        result_queue.put(("ready", worker_id, os.getpid()))
        while True:
            task = task_queue.get()
            if task is None:
                break
            kind, task_id, sources, out_ref, start, width, traced = task
            try:
                watch = Stopwatch()
                counter = TraversalCounter()
                # Traced dispatch: run the task under a private
                # buffering tracer whose events (and metrics deltas)
                # ship back with the result, so the parent can re-emit
                # them under its parallel.batch span.  The disabled
                # worker tracer is restored before replying.
                task_sink = MemorySink() if traced else None
                task_tracer = (
                    Tracer(task_sink) if task_sink is not None else None
                )
                prev_tracer = (
                    set_tracer(task_tracer)
                    if task_tracer is not None
                    else None
                )
                task_span = (
                    task_tracer.span(
                        "parallel.task",
                        kind=kind,
                        task=task_id,
                        num_sources=int(len(sources)),
                    )
                    if task_tracer is not None
                    else None
                )
                try:
                    name, array_spec = out_ref
                    if name != out_name:
                        if out_segment is not None:
                            out_segment.close()
                        out_segment = (
                            shm_mod._require_shared_memory().SharedMemory(
                                name=name
                            )
                        )
                        out_name = name
                    out = shm_mod.attach_array(out_segment, array_spec)
                    if kind == "ecc":
                        _fill_eccentricities(
                            graph,
                            engine,
                            sources,
                            out[start: start + len(sources)],
                            counter,
                            width,
                        )
                    elif kind == "dist":
                        _fill_distance_rows(
                            graph,
                            engine,
                            sources,
                            out[start: start + len(sources)],
                            counter,
                            width,
                        )
                    elif kind == "msbfs_dist":
                        out[start: start + len(sources)] = (
                            lane_batch_distances(
                                graph, sources, counter=counter
                            )
                        )
                    elif kind == "msbfs_ecc":
                        dist = lane_batch_distances(
                            graph, sources, counter=counter
                        )
                        np.max(
                            np.where(dist >= 0, dist, -1),
                            axis=1,
                            out=out[start: start + len(sources)],
                        )
                    elif kind == "dfwd":
                        # reprolint: disable=R4 (one full vectorised BFS per step)
                        for i in range(len(sources)):
                            out[start + i, :] = forward_bfs(
                                graph, int(sources[i]), counter=counter
                            )
                    elif kind == "dbwd":
                        # reprolint: disable=R4 (one full vectorised BFS per step)
                        for i in range(len(sources)):
                            out[start + i, :] = backward_bfs(
                                graph, int(sources[i]), counter=counter
                            )
                    elif kind == "decc":
                        # Forward eccentricities; -1 flags an unreached
                        # vertex so the parent can raise the directed
                        # DisconnectedGraphError without shipping rows
                        # back.
                        # reprolint: disable=R4 (one full vectorised BFS per step)
                        for i in range(len(sources)):
                            dist = forward_bfs(
                                graph, int(sources[i]), counter=counter
                            )
                            if len(dist) > 1 and bool(
                                np.any(dist == UNREACHED)
                            ):
                                out[start + i] = -1
                            else:
                                out[start + i] = (
                                    int(dist.max()) if len(dist) else 0
                                )
                    else:
                        raise ParallelBackendError(
                            f"unknown task kind {kind!r}"
                        )
                finally:
                    if task_span is not None:
                        task_span.finish()
                    if prev_tracer is not None:
                        set_tracer(prev_tracer)
                result_queue.put(
                    (
                        "done",
                        task_id,
                        worker_id,
                        _counter_totals(counter),
                        watch.elapsed(),
                        task_sink.events if task_sink is not None else None,
                        (
                            task_tracer.metrics.snapshot()
                            if task_tracer is not None
                            else None
                        ),
                    )
                )
            except Exception as exc:  # noqa: BLE001 - reported to parent
                import traceback

                result_queue.put(
                    (
                        "error",
                        task_id,
                        worker_id,
                        f"{type(exc).__name__}: {exc}\n"
                        + traceback.format_exc(),
                    )
                )
    finally:
        if out_segment is not None:
            out_segment.close()
        if graph_segment is not None:
            graph_segment.close()


# ---------------------------------------------------------------------------
# Parent-side pool
# ---------------------------------------------------------------------------
class _PoolResources:
    """Everything teardown must release, detached from the pool object.

    ``weakref.finalize`` must not hold the pool itself (that would pin
    it); it holds this bag instead, so GC-of-the-pool, ``close()`` and
    ``atexit`` all funnel into one idempotent :meth:`release`.
    """

    __slots__ = (
        "processes",
        "task_queue",
        "result_queue",
        "graph_share",
        "out_segment",
        "released",
    )

    def __init__(self) -> None:
        self.processes: List[Any] = []
        self.task_queue: Optional[Any] = None
        self.result_queue: Optional[Any] = None
        self.graph_share: Optional[shm_mod.SharedGraph] = None
        self.out_segment: Optional[Any] = None
        self.released = False

    def release(self) -> None:
        if self.released:
            return
        self.released = True
        if self.task_queue is not None:
            for _ in self.processes:
                try:
                    self.task_queue.put(None)
                except (OSError, ValueError):  # pragma: no cover - closing
                    break
        for proc in self.processes:
            proc.join(timeout=5.0)
        for proc in self.processes:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
        if self.result_queue is not None:
            self.result_queue.close()
        if self.out_segment is not None:
            self.out_segment.close()
            try:
                self.out_segment.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            self.out_segment = None
        if self.graph_share is not None:
            self.graph_share.unlink()
            self.graph_share = None


def _release_resources(resources: _PoolResources) -> None:
    resources.release()


class TraversalPool:
    """``W`` warm worker processes bound to one published graph.

    Parameters
    ----------
    graph:
        The (immutable) graph to publish.  The pool does **not** retain
        a reference — workers hold their own zero-copy views — so a
        pool in the weak registry never pins its graph alive.
    workers:
        Process count; ``None`` uses every usable core.
    chunks_per_worker:
        Dispatch granularity (see :data:`DEFAULT_CHUNKS_PER_WORKER`).
    """

    def __init__(
        self,
        graph: Any,
        workers: Optional[int] = None,
        chunks_per_worker: int = DEFAULT_CHUNKS_PER_WORKER,
    ) -> None:
        if not shm_mod.shared_memory_available():  # pragma: no cover
            raise ParallelBackendError(
                "multiprocessing.shared_memory is unavailable; "
                "use backend='numpy'"
            )
        if chunks_per_worker < 1:
            raise InvalidParameterError("chunks_per_worker must be >= 1")
        self.workers = resolve_workers(workers)
        self.chunks_per_worker = int(chunks_per_worker)
        self.num_vertices = graph.num_vertices
        # Arc count feeds the parent-side lane-width plan (the pool
        # must not retain the graph itself — see the class docstring).
        if hasattr(graph, "num_arcs"):
            self.num_arcs = int(graph.num_arcs)
        else:
            self.num_arcs = int(len(graph.indices))
        self.directed = hasattr(graph, "forward_view")
        self._task_counter = 0
        self._resources = _PoolResources()
        self._finalizer = weakref.finalize(
            self, _release_resources, self._resources
        )
        ctx = _mp_context()
        # Store-backed graphs publish as a file reference (workers map
        # the .rcsr pages); in-memory graphs are encoded into a segment.
        self._resources.graph_share = shm_mod.publish_graph(graph)
        self._resources.task_queue = ctx.SimpleQueue()
        self._resources.result_queue = ctx.Queue()
        try:
            for worker_id in range(self.workers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        self._resources.graph_share.spec,
                        self._resources.task_queue,
                        self._resources.result_queue,
                        worker_id,
                    ),
                    daemon=True,
                    name=f"repro-traversal-{worker_id}",
                )
                proc.start()
                self._resources.processes.append(proc)
            self._await_ready()
        except BaseException:
            self._finalizer()
            raise

    # -- lifecycle ------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether the pool has been torn down."""
        return self._resources.released

    def close(self) -> None:
        """Shut workers down and release every shared segment (idempotent)."""
        self._finalizer()

    def __enter__(self) -> "TraversalPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _await_ready(self) -> None:
        """Block until every worker has built its engine (the warm-up)."""
        pending = set(range(self.workers))
        watch = Stopwatch()
        while pending:
            message = self._next_message(_STARTUP_TIMEOUT - watch.elapsed())
            if message[0] != "ready":  # pragma: no cover - defensive
                raise ParallelBackendError(
                    f"unexpected startup message {message[0]!r}"
                )
            pending.discard(message[1])

    def _next_message(self, timeout: float) -> Tuple[Any, ...]:
        """One result-queue message, with worker-liveness supervision."""
        import queue as queue_mod

        result_queue = self._resources.result_queue
        assert result_queue is not None
        watch = Stopwatch()
        while True:
            try:
                return tuple(result_queue.get(timeout=_POLL_SECONDS))
            except queue_mod.Empty:
                self._check_workers()
                if watch.elapsed() > timeout:
                    self.close()
                    raise ParallelBackendError(
                        "timed out waiting for worker results"
                    ) from None

    def _check_workers(self) -> None:
        """Close the pool and raise if any worker process has died.

        Checked before every dispatch and on every idle poll while
        waiting: a survivor may otherwise serve a whole batch for a dead
        sibling, or wait forever on a queue lock the dead one held.
        """
        dead = [
            proc for proc in self._resources.processes if not proc.is_alive()
        ]
        if dead:
            codes = ", ".join(f"{proc.name}={proc.exitcode}" for proc in dead)
            self.close()
            raise ParallelBackendError(
                f"worker process(es) died: {codes}"
            ) from None

    # -- dispatch -------------------------------------------------------
    def _check_sources(self, sources: Sequence[int]) -> np.ndarray:
        """Validated int64 source array.

        :dtype src: int64
        """
        src = np.ascontiguousarray(sources, dtype=np.int64)
        if src.ndim != 1:
            raise InvalidParameterError("sources must be one-dimensional")
        if src.size and (src.min() < 0 or src.max() >= self.num_vertices):
            bad = src[(src < 0) | (src >= self.num_vertices)][0]
            raise InvalidVertexError(int(bad), self.num_vertices)
        return src

    def _plan_width(self, src: np.ndarray) -> int:
        """The lane width the serial path would plan for this batch.

        Planned parent-side over the *whole* batch (workers would see
        only their chunk and could plan differently), then shipped in
        every task so the sweep partition is backend-invariant.
        """
        from repro.graph.msengine import plan_lane_width

        return plan_lane_width(self.num_vertices, self.num_arcs, len(src))

    def _chunk_bounds(
        self, total: int, lane_groups: bool, align: int = 1
    ) -> List[int]:
        """Chunk start offsets for ``total`` sources (ascending, from 0).

        ``align > 1`` rounds the balanced chunk size up to a multiple of
        the planned lane width, so chunk boundaries never split a sweep
        group — workers grouping by the same width then reproduce the
        serial sweep partition (and its counter totals) exactly.
        """
        if lane_groups:
            size = _LANES
        else:
            size = max(
                1, -(-total // (self.workers * self.chunks_per_worker))
            )
            if align > 1:
                size = -(-size // align) * align
        return list(range(0, total, size))

    def _ensure_out(self, nbytes: int) -> Any:
        """The shared result segment, grown geometrically on demand."""
        out = self._resources.out_segment
        if out is not None and out.size >= nbytes:
            return out
        if out is not None:
            out.close()
            try:
                out.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        grown = max(nbytes, (out.size * 2) if out is not None else nbytes)
        fresh = shm_mod.create_segment(grown)
        self._resources.out_segment = fresh
        return fresh

    def _gather(
        self, num_tasks: int
    ) -> Tuple[
        TraversalCounter,
        Dict[str, float],
        Dict[int, Tuple[int, Any, Any]],
    ]:
        """Collect ``num_tasks`` worker replies; merge counters/timings.

        Returns ``(merged_counter, worker_seconds, telemetry)`` where
        ``telemetry`` maps ``task_id -> (worker_id, events, metrics)``
        for traced dispatches (``events``/``metrics`` are ``None`` when
        the task ran untraced).

        Raises :class:`ParallelBackendError` carrying every worker-side
        traceback if any task failed (after draining all replies, so the
        queue is clean for the next dispatch).
        """
        failures: List[str] = []
        worker_seconds: Dict[str, float] = {}
        telemetry: Dict[int, Tuple[int, Any, Any]] = {}
        merged = TraversalCounter()
        for _ in range(num_tasks):
            message = self._next_message(timeout=3600.0)
            if message[0] == "error":
                failures.append(f"worker {message[2]}: {message[3]}")
            elif message[0] == "done":
                _tag, task_id, worker_id, totals, seconds, events, deltas = (
                    message
                )
                merged.merge(TraversalCounter(**totals))
                key = f"w{worker_id}"
                worker_seconds[key] = (
                    worker_seconds.get(key, 0.0) + seconds
                )
                telemetry[int(task_id)] = (int(worker_id), events, deltas)
            else:  # pragma: no cover - defensive
                failures.append(f"unexpected message {message[0]!r}")
        if failures:
            raise ParallelBackendError(
                "parallel dispatch failed:\n" + "\n".join(failures)
            )
        return merged, worker_seconds, telemetry

    @staticmethod
    def _emit_task_telemetry(
        span: Any, telemetry: Dict[int, Tuple[int, Any, Any]]
    ) -> None:
        """Re-emit worker-buffered spans/metrics under the batch span.

        Tasks replay in ``task_id`` order — the one deterministic order
        a dispatch has (which *worker* served a task is scheduling
        noise, recorded as the ``worker=`` attribute on every
        re-emitted event).  ``parent`` seqs are remapped into the
        parent tracer's seq space by :meth:`Tracer.emit_foreign`, with
        the owning ``parallel.batch`` span adopting the worker-side
        roots; metric deltas fold into the parent registry.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return
        for task_id in sorted(telemetry):
            worker_id, events, deltas = telemetry[task_id]
            if events:
                tracer.emit_foreign(
                    events, parent=span.seq, worker=worker_id
                )
            if deltas:
                tracer.metrics.merge_snapshot(deltas)

    def _dispatch(
        self,
        kind: str,
        src: np.ndarray,
        row_shape: Tuple[int, ...],
        dtype: str,
        counter: Optional[TraversalCounter],
        lane_groups: bool = False,
        width: int = 0,
    ) -> np.ndarray:
        """Fan one batch out; return a caller-owned result array.

        ``row_shape`` is the per-source result shape: ``()`` for one
        eccentricity per source, ``(n,)`` for a distance row.  ``width``
        is the parent-planned lane width for "ecc"/"dist" tasks (0 =
        single-source loop); it both aligns the chunking and rides along
        in each task so workers group sweeps exactly as the serial path.
        """
        if self.closed:
            raise ParallelBackendError("pool is closed")
        self._check_workers()
        shape = (len(src),) + row_shape
        result = np.empty(shape, dtype=np.dtype(dtype))
        if len(src) == 0:
            return result
        out_spec = shm_mod.ArraySpec(
            key="out", offset=0, shape=shape, dtype=dtype
        )
        segment = self._ensure_out(result.nbytes)
        out_ref = (segment.name, out_spec)
        starts = self._chunk_bounds(
            len(src), lane_groups, align=max(1, width)
        )
        chunk = starts[1] if len(starts) > 1 else len(src)
        task_queue = self._resources.task_queue
        assert task_queue is not None
        traced = get_tracer().enabled
        with get_tracer().span(
            "parallel.batch",
            kind=kind,
            backend="process",
            workers=self.workers,
            num_sources=int(len(src)),
            chunks=[int(min(len(src), s + chunk) - s) for s in starts],
        ) as span:
            for task_id, start in enumerate(starts):
                task_queue.put(
                    (
                        kind,
                        task_id,
                        src[start: start + chunk],
                        out_ref,
                        start,
                        width,
                        traced,
                    )
                )
            merged, worker_seconds, telemetry = self._gather(len(starts))
            if counter is not None:
                counter.merge(merged)
            view = shm_mod.attach_array(segment, out_spec)
            result[...] = view
            self._emit_task_telemetry(span, telemetry)
            span.set(
                tasks=len(starts),
                traversals=merged.bfs_runs,
                edges_scanned=merged.edges_scanned,
                edges_inspected=merged.edges_inspected,
                worker_seconds=worker_seconds,
            )
        return result

    # -- batched entry points ------------------------------------------
    def eccentricities(
        self,
        sources: Optional[Sequence[int]] = None,
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """Per-source eccentricities (within components), fanned out.

        ``sources=None`` means every vertex — the naive full-ED sweep.
        Bit-identical to running the in-process engine per source.

        :dtype ecc: int32
        """
        src = self._check_sources(
            np.arange(self.num_vertices, dtype=np.int64)
            if sources is None
            else sources
        )
        return self._dispatch(
            "ecc", src, (), "int32", counter, width=self._plan_width(src)
        )

    def distance_rows(
        self,
        sources: Sequence[int],
        counter: Optional[TraversalCounter] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Full distance vectors, one row per source.

        With ``out`` given (a preallocated ``(len(sources), n)`` int32
        array) the rows are copied into it and it is returned.

        :mutates out: overwritten with the gathered distance rows.
        :dtype rows: int32
        """
        src = self._check_sources(sources)
        rows = self._dispatch(
            "dist",
            src,
            (self.num_vertices,),
            "int32",
            counter,
            width=self._plan_width(src),
        )
        if out is not None:
            out[...] = rows
            return out
        return rows

    def msbfs_distance_rows(
        self,
        sources: Sequence[int],
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """MS-BFS distance matrix; each 64-lane group is one task.

        :dtype rows: int32
        """
        src = self._check_sources(sources)
        return self._dispatch(
            "msbfs_dist",
            src,
            (self.num_vertices,),
            "int32",
            counter,
            lane_groups=True,
        )

    def msbfs_eccentricities(
        self,
        sources: Optional[Sequence[int]] = None,
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """Per-source eccentricities via worker-side MS-BFS reduction.

        :dtype ecc: int32
        """
        src = self._check_sources(
            np.arange(self.num_vertices, dtype=np.int64)
            if sources is None
            else sources
        )
        return self._dispatch(
            "msbfs_ecc", src, (), "int32", counter, lane_groups=True
        )

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
        src = self._check_sources(
            np.arange(self.num_vertices, dtype=np.int64)
            if sources is None
            else sources
        )
        return self._dispatch("decc", src, (), "int32", counter)

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
        src = self._check_sources(sources)
        kind = "dfwd" if direction == "forward" else "dbwd"
        return self._dispatch(
            kind, src, (self.num_vertices,), "int32", counter
        )

    def directed_probe_pair(
        self,
        source: int,
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """One probe pair — forward and backward BFS from ``source`` —
        as two tasks that run concurrently on two workers.

        Returns a ``(2, n)`` matrix: row 0 is ``dist(source, .)``
        (forward), row 1 ``dist(., source)`` (backward).  This is the
        :class:`repro.directed.traversal.DirectedBFSOracle` source-probe
        unit; pairing the two traversals in one dispatch halves the
        probe's wall-clock instead of paying two IPC round-trips.

        :dtype rows: int32
        """
        self._require_directed()
        if self.closed:
            raise ParallelBackendError("pool is closed")
        self._check_workers()
        src = self._check_sources([source])
        n = self.num_vertices
        shape = (2, n)
        result = np.empty(shape, dtype=np.int32)
        out_spec = shm_mod.ArraySpec(
            key="out", offset=0, shape=shape, dtype="int32"
        )
        segment = self._ensure_out(result.nbytes)
        out_ref = (segment.name, out_spec)
        task_queue = self._resources.task_queue
        assert task_queue is not None
        traced = get_tracer().enabled
        with get_tracer().span(
            "parallel.batch",
            kind="dprobe",
            backend="process",
            workers=self.workers,
            num_sources=2,
            chunks=[1, 1],
        ) as span:
            task_queue.put(("dfwd", 0, src, out_ref, 0, 0, traced))
            task_queue.put(("dbwd", 1, src, out_ref, 1, 0, traced))
            merged, worker_seconds, telemetry = self._gather(2)
            if counter is not None:
                counter.merge(merged)
            result[...] = shm_mod.attach_array(segment, out_spec)
            self._emit_task_telemetry(span, telemetry)
            span.set(
                tasks=2,
                traversals=merged.bfs_runs,
                edges_scanned=merged.edges_scanned,
                edges_inspected=merged.edges_inspected,
                worker_seconds=worker_seconds,
            )
        return result


# ---------------------------------------------------------------------------
# Per-graph registry (mirrors engine_for / _workspace_for)
# ---------------------------------------------------------------------------
_POOLS: "weakref.WeakKeyDictionary[Any, TraversalPool]" = (
    weakref.WeakKeyDictionary()
)
_POOLS_LOCK = threading.Lock()


def pool_for(graph: Any, workers: Optional[int] = None) -> TraversalPool:
    """The cached :class:`TraversalPool` of ``graph`` (created on demand).

    A cached pool is reused when ``workers`` is ``None`` or matches its
    size; a mismatching request tears the old pool down and builds a
    fresh one (pools are heavy — two differently-sized pools per graph
    would double every workspace).
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
    """Close every cached pool (tests, atexit)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.close()


atexit.register(shutdown_pools)
