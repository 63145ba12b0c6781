"""Traversal-work accounting shared by every distance oracle.

The paper compares approximate algorithms "under the same number of
BFSs" (Section 7.3) and reports exact algorithms by BFS count in the
case study (Section 7.5).  With the weighted and directed extensions
riding the same solver core, the cost unit generalises from "BFS runs"
to *traversal runs* — one Dijkstra or one backward BFS counts exactly
like one BFS, and each back-end additionally reports its own fine-
grained work (arcs expanded, arcs inspected bottom-up, Dijkstra edge
relaxations) so cross-metric comparisons stay honest.

:class:`TraversalCounter` is the meter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["TraversalCounter"]


@dataclass
class TraversalCounter:
    """Counts traversal work for cost accounting, metric-generically.

    ``bfs_runs`` counts *traversals* of any kind — BFS, Dijkstra,
    forward or backward directed BFS — and keeps its historical name so
    every existing report and result field stays meaningful
    (:attr:`traversal_runs` is the modern alias).

    ``edges_scanned`` counts arcs expanded by the classic frontier
    metric; ``edges_inspected`` additionally includes the arcs that
    bottom-up levels of the direction-optimizing BFS engine examined
    while probing unvisited vertices — edges that are inspected but
    never "scanned".  For a purely top-down traversal the two are
    equal.  ``relaxations`` counts successful Dijkstra edge relaxations
    (distance improvements); it stays 0 for unweighted traversals.

    ``history`` records one label per traversal (``bfs:4``,
    ``dijkstra:7``, ``bwd:12``, ...) so tests and benchmarks can audit
    exactly which oracle ran what.

    ``speculative_lanes`` counts lanes of a speculative sweep that no
    caller applied: the solver's FFO sweep probes several candidates in
    one lane sweep, credits ``bfs_runs`` only for the lanes whose
    distances it uses (:meth:`speculate`, :meth:`apply_lane`), and
    leaves the rest here.  Their arc work stays in the edge and vertex
    totals, which therefore measure what was swept.
    """

    bfs_runs: int = 0
    edges_scanned: int = 0
    edges_inspected: int = 0
    vertices_visited: int = 0
    relaxations: int = 0
    speculative_lanes: int = 0
    history: list[str] = field(default_factory=list)

    @property
    def traversal_runs(self) -> int:
        """Metric-neutral alias for :attr:`bfs_runs`."""
        return self.bfs_runs

    def record(
        self,
        edges: int,
        vertices: int,
        label: str = "",
        inspected: Optional[int] = None,
        relaxations: int = 0,
    ) -> None:
        """Record one completed traversal.

        ``inspected`` defaults to ``edges`` (a traversal that never ran
        bottom-up inspects exactly what it scans); ``relaxations`` is
        the Dijkstra improvement count (0 for BFS).
        """
        self.bfs_runs += 1
        self.edges_scanned += edges
        self.edges_inspected += edges if inspected is None else inspected
        self.vertices_visited += vertices
        self.relaxations += relaxations
        if label:
            self.history.append(label)

    def speculate(self, lanes: int) -> None:
        """Hold back the last ``lanes`` credited traversals as speculative.

        Called right after a sweep credited its lanes as runs; each lane
        returns to :attr:`bfs_runs` when :meth:`apply_lane` uses it.
        """
        self.bfs_runs -= lanes
        self.speculative_lanes += lanes

    def apply_lane(self) -> None:
        """Count one held-back lane as a traversal run after all."""
        self.speculative_lanes -= 1
        self.bfs_runs += 1

    def merge(self, other: "TraversalCounter") -> None:
        """Fold another counter's totals into this one."""
        self.bfs_runs += other.bfs_runs
        self.edges_scanned += other.edges_scanned
        self.edges_inspected += other.edges_inspected
        self.vertices_visited += other.vertices_visited
        self.relaxations += other.relaxations
        self.speculative_lanes += other.speculative_lanes
        self.history.extend(other.history)
