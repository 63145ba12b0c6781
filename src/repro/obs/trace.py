"""Zero-dependency span/event tracer for the solver core.

The paper's empirical story is told in work-and-progress curves — BFS
counts per dataset (Table 3, Figure 8), probe-number decay (Lemma 4.3 /
Table 2), anytime convergence under equal budgets (Section 7.3).  This
module turns every such curve into a *structured, replayable record*:
instrumented code emits **events** (point-in-time facts) and **spans**
(timed, nestable units of work — one per traversal) into a pluggable
:class:`Sink`.  A trace of which probe tightened which bounds is exactly
the checkable certificate of Dragan et al. ("Certificates in P",
arXiv:1803.04660): replaying the recorded traversal sequence
re-establishes every bound the solver claimed.

Design rules, in order:

1. **Hot paths pay one branch when tracing is off.**  The default sink
   is :class:`NullSink`; :attr:`Tracer.enabled` is a plain attribute, so
   instrumentation sites guard with ``if tracer.enabled:`` (or receive
   the shared no-op span) and cost one attribute load + branch per
   traversal — never per vertex or per edge.
2. **Zero dependencies.**  Only the standard library; events are plain
   dicts so any sink (or test) can consume them without this module.
3. **Determinism modulo timestamps.**  Every event carries a
   monotonically increasing ``seq`` and its payload is fully determined
   by the computation; wall-clock fields (``t``, ``t0``, ``dur``) and
   the pool's scheduling tags are the only nondeterministic keys, and
   :func:`deterministic_view` strips them — that is the equality tests
   and golden traces use.

The module-level *active tracer* (:func:`get_tracer` /
:func:`set_tracer` / the :func:`tracing` context manager) is how deeply
buried call sites — the pooled BFS engine, the Dijkstra kernel — find
the current sink without threading a tracer argument through every
signature.  A thread can shadow it for itself with
:func:`thread_tracing`; the traversal pool's worker threads do, so they
never write to the process-wide span stack.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from types import TracebackType
from typing import (
    IO,
    Any,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Type,
    Union,
)

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Event",
    "Sink",
    "NullSink",
    "MemorySink",
    "JSONLSink",
    "Span",
    "Tracer",
    "Stopwatch",
    "stopwatch",
    "get_tracer",
    "set_tracer",
    "tracing",
    "thread_tracing",
    "deterministic_view",
]

#: An event is a plain JSON-serialisable dict.  Canonical keys:
#: ``kind`` ("event" or "span"), ``seq``, ``name``, ``parent`` (enclosing
#: span's seq or None), ``t``/``t0``/``dur`` (wall-clock; stripped by
#: :func:`deterministic_view`), plus the emitting site's attributes.
Event = Dict[str, Any]

#: The only nondeterministic keys of an event: wall-clock times, plus
#: what depends on which pool thread ran a task (:mod:`repro.parallel.
#: pool`) — ``worker_seconds``, the per-thread timing map on
#: ``parallel.batch`` spans, and the ``worker`` tag on replayed task
#: events.  Everything else is fixed by the computation.
VOLATILE_KEYS = ("t", "t0", "dur", "worker_seconds", "worker")


class Sink:
    """Receives events.  ``active`` gates instrumentation entirely."""

    #: When False, tracers built on this sink disable instrumentation.
    active: bool = True

    def emit(self, event: Event) -> None:
        """Consume one event (must not mutate it)."""
        raise NotImplementedError


class NullSink(Sink):
    """The default sink: tracing off, one branch per instrumented site."""

    active = False

    def emit(self, event: Event) -> None:  # pragma: no cover - never called
        pass


class MemorySink(Sink):
    """In-memory ring buffer (oldest events dropped past ``capacity``)."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._buffer: Deque[Event] = deque(maxlen=capacity)
        self.dropped = 0

    def emit(self, event: Event) -> None:
        if (
            self._buffer.maxlen is not None
            and len(self._buffer) == self._buffer.maxlen
        ):
            self.dropped += 1
        self._buffer.append(event)

    @property
    def events(self) -> List[Event]:
        """The buffered events, oldest first."""
        return list(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._buffer)


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars (duck-typed via ``item()``) for json.dumps."""
    item = getattr(value, "item", None)
    if item is not None:
        return item()
    raise TypeError(f"event attribute not JSON-serialisable: {value!r}")


class JSONLSink(Sink):
    """Streams events to a file, one JSON object per line.

    Accepts a path (owned: :meth:`close` closes it) or an open text
    handle (borrowed).  Usable as a context manager.
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._handle = target
            self._owns = False

    def emit(self, event: Event) -> None:
        self._handle.write(json.dumps(event, default=_jsonable) + "\n")

    def close(self) -> None:
        self._handle.flush()
        if self._owns:
            self._handle.close()

    def __enter__(self) -> "JSONLSink":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


class Span:
    """One timed unit of work (a traversal, a build phase, a run).

    Created by :meth:`Tracer.span`; used as a context manager.  The
    single span event is emitted on exit — so a span's ``seq`` orders it
    by *completion* — and carries ``t0``/``dur`` plus every attribute
    given at creation or via :meth:`set`.  Nesting is recorded through
    ``parent`` (the enclosing span's ``seq``).
    """

    __slots__ = ("_tracer", "name", "attrs", "seq", "parent", "_t0")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, Any],
        parent: Optional[int],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.seq = tracer._next_seq()
        self.parent = parent
        self._t0 = time.perf_counter()

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)
        return self

    def finish(self) -> None:
        """Close the span without the ``with`` statement.

        For sites that must attach attributes computed *after* the timed
        work but before control leaves the enclosing scope (e.g. a
        generator about to yield).
        """
        self._tracer._finish_span(self, failed=False)

    def __enter__(self) -> "Span":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self._tracer._finish_span(self, failed=exc is not None)


class _NoopSpan:
    """Shared do-nothing span returned when tracing is off."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Emits spans and events into one sink.

    Attributes
    ----------
    enabled:
        Plain bool — the one-branch guard instrumented code reads.
        False exactly when the sink is a :class:`NullSink`.
    metrics:
        A :class:`repro.obs.metrics.MetricsRegistry` instrumentation may
        feed alongside the event stream (counters/gauges/histograms
        aggregate what events itemise).
    """

    def __init__(
        self,
        sink: Optional[Sink] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sink: Sink = sink if sink is not None else NullSink()
        self.enabled: bool = self.sink.active
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._seq = 0
        self._stack: List[int] = []

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def active_span_seq(self) -> Optional[int]:
        """``seq`` of the innermost open span, or ``None`` outside spans.

        The public read the workspace sanitizer
        (:mod:`repro.sanitize`) uses to stamp borrow sites with the
        span that was live when a pooled buffer was loaned out, so a
        stale-read report can name the traversal that invalidated it.
        """
        return self._stack[-1] if self._stack else None

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a point-in-time event (no duration)."""
        if not self.enabled:
            return
        payload: Event = {
            "kind": "event",
            "seq": self._next_seq(),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "t": time.perf_counter(),
        }
        payload.update(attrs)
        self.sink.emit(payload)

    def span(self, name: str, **attrs: Any) -> Union[Span, _NoopSpan]:
        """Open a span (context manager); no-op when tracing is off."""
        if not self.enabled:
            return _NOOP_SPAN
        span = Span(
            self, name, dict(attrs), self._stack[-1] if self._stack else None
        )
        self._stack.append(span.seq)
        return span

    def emit_foreign(
        self,
        events: List[Event],
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> List[int]:
        """Re-emit events captured by *another* tracer into this sink.

        The merge primitive of the traversal pool: each task buffers
        its spans into a private :class:`MemorySink` with its own
        ``seq`` space; the dispatching thread replays them here,
        allocating fresh ``seq`` values and remapping each event's
        ``parent`` through the same mapping so causal nesting survives
        the move.  Events that were roots in the task (``parent is
        None`` or a seq the buffer does not hold) are attached to
        ``parent`` — the enclosing
        ``parallel.batch`` span.  ``attrs`` (e.g. ``worker=3``) are
        stamped onto every re-emitted event.

        Returns the new seqs, in emission order.
        """
        if not self.enabled:
            return []
        # Spans are emitted at *completion*, so a task stream can
        # reference a parent seq whose span event appears later (the
        # enclosing span closes last).  Allocate the whole seq mapping
        # up front — in old-seq (creation) order, preserving the
        # children-outnumber-parents seq invariant — then replay the
        # stream in its buffered order.
        seq_map: Dict[int, int] = {
            old: self._next_seq()
            for old in sorted(
                event["seq"]
                for event in events
                if isinstance(event.get("seq"), int)
            )
        }
        new_seqs: List[int] = []
        for event in events:
            old_seq = event.get("seq")
            new_seq = (
                seq_map[old_seq]
                if isinstance(old_seq, int)
                else self._next_seq()
            )
            old_parent = event.get("parent")
            payload: Event = dict(event)
            payload["seq"] = new_seq
            payload["parent"] = (
                seq_map.get(old_parent, parent)
                if old_parent is not None
                else parent
            )
            payload.update(attrs)
            self.sink.emit(payload)
            new_seqs.append(new_seq)
        return new_seqs

    def _finish_span(self, span: Span, failed: bool) -> None:
        if self._stack and self._stack[-1] == span.seq:
            self._stack.pop()
        payload: Event = {
            "kind": "span",
            "seq": span.seq,
            "name": span.name,
            "parent": span.parent,
            "t0": span._t0,
            "dur": time.perf_counter() - span._t0,
        }
        if failed:
            payload["failed"] = True
        payload.update(span.attrs)
        self.sink.emit(payload)


class Stopwatch:
    """The sanctioned wall-clock pair: start on construction, read later.

    Replaces the hand-rolled ``start = time.perf_counter()`` /
    ``elapsed = time.perf_counter() - start`` pairs that used to be
    scattered through the code base (reprolint R8 ``no-adhoc-timing``
    keeps them from coming back).  A stopwatch composes with tracing —
    the measured value is what result objects report; spans carry their
    own timing.
    """

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction (or the last :meth:`restart`)."""
        return time.perf_counter() - self._start

    def restart(self) -> None:
        self._start = time.perf_counter()


def stopwatch() -> Stopwatch:
    """A freshly started :class:`Stopwatch`."""
    return Stopwatch()


#: The process-wide active tracer; NullSink by default, so every
#: instrumented site is a single always-false branch until someone
#: installs a real sink via :func:`set_tracer` or :func:`tracing`.
_ACTIVE = Tracer()


class _ThreadTracer(threading.local):
    """A per-thread override of :data:`_ACTIVE` (``None``: no override)."""

    tracer: Optional[Tracer] = None


_THREAD = _ThreadTracer()


def get_tracer() -> Tracer:
    """The active tracer (never None; disabled by default).

    Inside :func:`thread_tracing` the calling thread gets its own
    tracer instead of the process-wide one.
    """
    override = _THREAD.tracer
    return _ACTIVE if override is None else override


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the active tracer; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


@contextmanager
def tracing(
    sink: Sink, metrics: Optional[MetricsRegistry] = None
) -> Iterator[Tracer]:
    """Run a block with ``sink`` active; restores the previous tracer.

    >>> from repro.obs.trace import MemorySink, tracing
    >>> sink = MemorySink()
    >>> with tracing(sink) as tracer:
    ...     tracer.event("example", value=1)
    >>> [e["name"] for e in sink.events]
    ['example']
    """
    tracer = Tracer(sink, metrics=metrics)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@contextmanager
def thread_tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Make ``tracer`` the active tracer of the calling thread only.

    Other threads keep seeing the process-wide tracer.  The traversal
    pool runs every task under one, so worker threads never touch the
    shared span stack (see :mod:`repro.parallel.pool`).
    """
    previous = _THREAD.tracer
    _THREAD.tracer = tracer
    try:
        yield tracer
    finally:
        _THREAD.tracer = previous


def deterministic_view(events: List[Event]) -> List[Event]:
    """Events with :data:`VOLATILE_KEYS` stripped — the comparable residue.

    Two runs of the same algorithm on the same graph produce identical
    deterministic views (the trace-determinism contract golden-trace
    tests pin); only the stripped times and worker tags differ.
    """
    return [
        {k: v for k, v in event.items() if k not in VOLATILE_KEYS}
        for event in events
    ]
