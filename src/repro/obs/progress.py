"""Live convergence monitor: an in-process telemetry subscriber.

The paper's Algorithm-2 loop is an *anytime* process — after every
traversal the lower/upper bound gap is a live certificate of how much
of the answer is already pinned down (cf. "Certificates in P",
PAPERS.md).  :class:`ProgressMonitor` turns that signal into a view you
can watch: it is a :class:`repro.obs.trace.Sink`, so installing it via
``tracing(ProgressMonitor(...))`` subscribes it to the exact telemetry
the solver and engines already emit — no new instrumentation sites:

``solver.probe`` spans
    carry the convergence state after each traversal (cumulative
    ``traversals``, ``resolved``, ``remaining`` — the event-stream
    mirror of the ``solver.unresolved`` gauge — and the bound-gap
    mass ``gap``).
``bfs.run`` / ``msbfs.run`` events
    carry raw traversal work (one run / ``num_sources`` lane
    traversals), so batch algorithms with no probe loop still show a
    moving rate.  ``parallel.batch`` spans are deliberately *not*
    counted: their task-side children are re-emitted individually
    (see :mod:`repro.parallel.pool`) and would double-count.
``solver.run`` spans
    closing one finalises the view (a newline instead of the
    carriage-return overwrite).

The rendered line shows resolved count, remaining bound-gap mass,
traversal rate, and a resolution-rate ETA.  For programmatic consumers
— the future serve daemon streaming partial-answer progress — pass
``callback``: it receives a :class:`ProgressState` after every update,
unthrottled.  ``forward`` tees every event into another sink, so
``--progress`` composes with ``--trace``'s capturing memory sink.

Timestamps come from the events themselves (``t``/``t0``+``dur``)
so replaying a recorded stream reproduces the same elapsed/rate
numbers; the wall clock is only a fallback for timestamp-stripped
events.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import IO, Any, Callable, Optional

from repro.obs.trace import Event, Sink

__all__ = ["ProgressMonitor", "ProgressState"]


@dataclass
class ProgressState:
    """One observation of a run's convergence, as of the latest event.

    ``traversals`` is the best available count: the solver's own
    cumulative counter when probe spans flow, otherwise the sum of
    engine-level run events.  ``resolved``/``num_vertices``/
    ``gap_mass`` are ``None``-free only once a probe span has arrived
    (batch workloads never resolve per-vertex bounds).
    """

    traversals: int = 0
    resolved: Optional[int] = None
    num_vertices: Optional[int] = None
    gap_mass: Optional[float] = None
    elapsed: float = 0.0
    rate: float = 0.0
    eta_seconds: Optional[float] = None
    finished: bool = False

    def fraction_resolved(self) -> Optional[float]:
        """Resolved share in [0, 1], when per-vertex bounds are known."""
        if self.resolved is None or not self.num_vertices:
            return None
        return self.resolved / self.num_vertices


class ProgressMonitor(Sink):
    """Render an ETA'd convergence view from the live event stream.

    Parameters
    ----------
    stream:
        Where the view is drawn (default ``sys.stderr``); each update
        overwrites the line via ``\\r``, the final update ends it.
    interval:
        Minimum seconds between redraws (event-timestamp clocked); the
        finishing update always draws.  ``0`` redraws on every event.
    callback:
        Called with the fresh :class:`ProgressState` after every
        consumed event (never throttled).
    forward:
        Optional sink every event is passed through to, unchanged —
        the tee that lets ``--progress`` ride alongside ``--trace``.
    """

    active = True

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        interval: float = 0.5,
        callback: Optional[Callable[[ProgressState], None]] = None,
        forward: Optional[Sink] = None,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._interval = float(interval)
        self._callback = callback
        self._forward = forward
        self.state = ProgressState()
        self._t_first: Optional[float] = None
        self._t_last_render: Optional[float] = None
        self._engine_traversals = 0
        self._probe_traversals = 0
        self._rendered = False

    # ------------------------------------------------------------ sink
    def emit(self, event: Event) -> None:
        if self._forward is not None:
            self._forward.emit(event)
        now = self._timestamp(event)
        if self._t_first is None:
            self._t_first = now
        name = event.get("name")
        finished = False
        if name == "solver.probe":
            traversals = event.get("traversals")
            if isinstance(traversals, int):
                self._probe_traversals = max(
                    self._probe_traversals, traversals
                )
            resolved = event.get("resolved")
            remaining = event.get("remaining")
            if isinstance(resolved, int) and isinstance(remaining, int):
                self.state.resolved = resolved
                self.state.num_vertices = resolved + remaining
            gap = event.get("gap")
            if isinstance(gap, (int, float)):
                self.state.gap_mass = float(gap)
        elif name == "bfs.run":
            self._engine_traversals += 1
        elif name == "msbfs.run":
            sources = event.get("num_sources")
            self._engine_traversals += (
                sources if isinstance(sources, int) else 1
            )
        elif name == "solver.run" and event.get("kind") == "span":
            traversals = event.get("traversals")
            if isinstance(traversals, int):
                self._probe_traversals = max(
                    self._probe_traversals, traversals
                )
            finished = True
        self._advance(now, finished)

    # ------------------------------------------------------- internals
    @staticmethod
    def _timestamp(event: Event) -> float:
        t = event.get("t")
        if isinstance(t, (int, float)):
            return float(t)
        t0 = event.get("t0")
        if isinstance(t0, (int, float)):
            return float(t0) + float(event.get("dur", 0.0) or 0.0)
        return time.perf_counter()

    def _advance(self, now: float, finished: bool) -> None:
        state = self.state
        state.traversals = max(
            self._probe_traversals, self._engine_traversals
        )
        t_first = self._t_first if self._t_first is not None else now
        state.elapsed = max(0.0, now - t_first)
        state.rate = (
            state.traversals / state.elapsed if state.elapsed > 0 else 0.0
        )
        state.eta_seconds = self._estimate_eta(state)
        state.finished = finished
        if self._callback is not None:
            self._callback(state)
        due = (
            self._t_last_render is None
            or now - self._t_last_render >= self._interval
        )
        if finished or due:
            self._render(finished)
            self._t_last_render = now

    @staticmethod
    def _estimate_eta(state: ProgressState) -> Optional[float]:
        """Seconds to full resolution at the observed resolution rate."""
        fraction = state.fraction_resolved()
        if fraction is None or fraction <= 0.0 or state.elapsed <= 0.0:
            return None
        if fraction >= 1.0:
            return 0.0
        return state.elapsed * (1.0 - fraction) / fraction

    def _render(self, finished: bool) -> None:
        state = self.state
        parts = [f"trav {state.traversals}"]
        if state.rate > 0:
            parts.append(f"{state.rate:.1f}/s")
        if state.resolved is not None and state.num_vertices:
            pct = 100.0 * state.resolved / state.num_vertices
            parts.append(
                f"resolved {state.resolved}/{state.num_vertices}"
                f" ({pct:.1f}%)"
            )
        if state.gap_mass is not None:
            parts.append(f"gap {state.gap_mass:g}")
        if finished:
            parts.append("done")
        elif state.eta_seconds is not None:
            parts.append(f"eta ~{state.eta_seconds:.0f}s")
        line = "[progress] " + " | ".join(parts)
        self._stream.write("\r" + line.ljust(79))
        if finished:
            self._stream.write("\n")
        self._stream.flush()
        self._rendered = True

    def close(self) -> None:
        """End the view's line if anything was drawn but never finalised."""
        if self._rendered and not self.state.finished:
            self._stream.write("\n")
            self._stream.flush()
            # The line is finalised; a second close must not add more.
            self._rendered = False
