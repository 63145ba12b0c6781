"""The metric-generic Algorithm-2 solver core.

Section 3.1's observation — formalised by Dragan et al.'s certificate
view — is that *every* bound-based eccentricity algorithm is the same
loop: pick references, order probes farthest-first, tighten Lemma
3.1/3.3 bounds until every gap closes.  The repository used to
implement that loop three times (unweighted BFS, weighted Dijkstra,
directed forward/backward BFS); :class:`EccentricitySolver` implements
it once, parameterised over a :class:`repro.core.oracles.DistanceOracle`:

1. select ``r`` reference nodes ``Z`` (Algorithm 2, line 1);
2. one *source probe* per ``z`` in ``Z`` yields ``ecc(z)``, the forward
   distances (hence the FFO ``L^z``) and the reverse distances
   (lines 2-4; symmetric metrics get both vectors from one traversal);
3. every other vertex joins the *territory* ``V^z`` of its closest
   reference and has its bounds seeded by Lemma 3.1 (lines 5-9);
4. for each ``z``, *sweep probes* walk ``L^z`` front-to-back; each
   probe yields exact reverse distances, so Lemma 3.1 raises lower
   bounds and Lemma 3.3 caps upper bounds for the territory, until
   every territory member's bounds meet (lines 10-18).  The oracle may
   answer several upcoming probes with one traversal (lane probes);
   the solver still applies them one at a time, in FFO order.

Because the loop is shared, every capability built on it — the anytime
:meth:`EccentricitySolver.steps` protocol, kIFECC-style budgeting
(:meth:`run_budgeted`), extremes early-stop
(:func:`repro.core.extremes.oracle_radius_and_diameter`) and the
convergence instrumentation of :mod:`repro.analysis.convergence` —
works identically for unweighted, weighted, and directed inputs.

The unweighted instantiation (:class:`repro.core.ifecc.IFECC`) is
bit-identical to the historical implementation: same probe sequence,
same traversal counts, same snapshots, same results (lane probes change
only the arc and vertex work totals, which count what each sweep did).
Weighted and directed instantiations are value-identical to their
pre-unification ancestors within the oracle's documented tolerance.

Space stays ``O(m + n)`` (Theorem 4.5): the graph, the bound arrays,
and the ``r`` reference distance vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import sanitize
from repro.core.bounds import BoundState
from repro.core.ffo import FarthestFirstOrder, farthest_first_order
from repro.core.oracles import DistanceOracle
from repro.core.result import EccentricityResult, ProgressSnapshot
from repro.counters import TraversalCounter
from repro.errors import InvalidParameterError
from repro.obs.trace import Stopwatch, Tracer, get_tracer
from repro.sentinels import unreached_mask

__all__ = ["EccentricitySolver", "Territory"]


@dataclass
class Territory:
    """A reference node's working state during the main loop.

    ``dist_into`` holds ``dist(v, z)`` for every ``v`` — the vector the
    Lemma 3.3 tail cap reads.  For symmetric metrics it is the FFO's
    own distance vector; the directed oracle supplies the backward-BFS
    vector.
    """

    reference: int
    ffo: FarthestFirstOrder
    members: np.ndarray  # vertex ids owned by this reference
    dist_into: np.ndarray  # dist(., reference)


class EccentricitySolver:
    """Generic Algorithm-2 engine over a pluggable distance oracle.

    Parameters
    ----------
    oracle:
        The metric back-end (see :mod:`repro.core.oracles`).
    num_references:
        ``r``, the reference-node count.  The paper's headline
        configuration is ``r = 1`` (Section 4.3).
    strategy:
        Reference-selection rule, resolved by the oracle (``"degree"``
        is every metric's default; the unweighted oracle also offers
        ``"random"`` and ``"center"``).
    seed:
        Seed for stochastic strategies; ignored by ``"degree"``.
    memoize_distances:
        Cache each probe's distance vector and replay it when a vertex
        sits at the FFO front of several references (the Section 4.3
        space/time trade-off; reference vectors are always retained).
    counter:
        Optional shared :class:`repro.counters.TraversalCounter`.
    tracer:
        Optional explicit :class:`repro.obs.trace.Tracer`; by default the
        process-wide active tracer (:func:`repro.obs.trace.get_tracer`)
        is consulted at :meth:`steps` time, so ``with tracing(sink):``
        around a run captures its spans without touching this signature.
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        num_references: int = 1,
        strategy: str = "degree",
        seed: int = 0,
        memoize_distances: bool = False,
        counter: Optional[TraversalCounter] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if num_references < 1:
            raise InvalidParameterError("num_references must be >= 1")
        if oracle.num_vertices == 0:
            raise InvalidParameterError("graph must have at least one vertex")
        self.oracle = oracle
        self.num_references = min(num_references, oracle.num_vertices)
        self.strategy = strategy
        self.seed = seed
        self.memoize_distances = memoize_distances
        self.counter = counter if counter is not None else TraversalCounter()
        self._tracer = tracer
        self.bounds = BoundState(
            oracle.num_vertices,
            dtype=oracle.dtype,
            tolerance=oracle.tolerance,
        )
        self.references = oracle.select_references(
            strategy, self.num_references, seed
        )
        self._territories: List[Territory] = []
        # source id -> (ecc-or-None, dist(., source)) for probes whose
        # result is retained: always the references, plus every probe
        # when memoize_distances is on.
        self._known: Dict[int, Tuple[Optional[float], np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Phase 1: reference probes + territory assignment (Alg. 2, 1-9)
    # ------------------------------------------------------------------
    def _initialise(self) -> Iterator[ProgressSnapshot]:
        oracle = self.oracle
        tracer = self._active_tracer()
        ffos: List[FarthestFirstOrder] = []
        reverse: List[np.ndarray] = []
        for z in self.references:
            z = int(z)
            span = tracer.span(
                "solver.probe",
                probe="reference",
                source=z,
                territory=z,
                ffo_rank=None,
                metric=oracle.metric_name,
                oracle=getattr(oracle, "trace_kind", oracle.metric_name),
            )
            ecc_z, dist_from, dist_into = oracle.source_probe(
                z, counter=self.counter
            )
            if bool(np.any(unreached_mask(dist_from))) or (
                dist_into is not dist_from
                and bool(np.any(unreached_mask(dist_into)))
            ):
                raise oracle.disconnected_error()
            ffo = farthest_first_order(dist_from, z)
            ffos.append(ffo)
            reverse.append(dist_into)
            self.bounds.set_exact(z, ffo.eccentricity)
            # Memoising relies on source_probe's caller-owned contract;
            # under REPRO_SANITIZE=1 a pooled loan slipping in raises
            # here, at the retention site, not at some later stale read.
            self._known[z] = (
                ffo.eccentricity,
                sanitize.assert_owned(dist_into),
            )
            snap, gap_mass = self._snapshot(z, tracer.enabled)
            if tracer.enabled:
                self._finish_probe_span(
                    tracer, span, ffo.eccentricity, snap, gap_mass
                )
            yield snap

        # Closest reference per vertex (by forward distance); ties go to
        # the earlier entry of Z (the higher-degree reference),
        # matching Example 4.6.
        dist_matrix = np.stack([f.distances for f in ffos])  # (r, n)
        owner_idx = np.argmin(dist_matrix, axis=0)

        for idx, ffo in enumerate(ffos):
            z = int(self.references[idx])
            members = np.flatnonzero(owner_idx == idx)
            members = members[~np.isin(members, self.references)]
            dist_into_z = reverse[idx]
            # Lemma 3.1 seed from the territory's own reference
            # (lines 8-9); asymmetric metrics split the two directions.
            if dist_into_z is ffo.distances:
                self.bounds.apply_lemma31_subset(
                    members, ffo.distances[members], ffo.eccentricity
                )
            else:
                self.bounds.apply_lemma31_subset(
                    members,
                    dist_into_z[members],
                    ffo.eccentricity,
                    dist_from_subset=ffo.distances[members],
                )
            self._territories.append(
                Territory(
                    reference=z,
                    ffo=ffo,
                    members=members.astype(np.int64),
                    dist_into=dist_into_z,
                )
            )
            tracer.event(
                "solver.territory", reference=z, size=int(len(members))
            )

    # ------------------------------------------------------------------
    # Phase 2: FFO-ordered probe sweep (Algorithm 2, 10-18)
    # ------------------------------------------------------------------
    def steps(self) -> Iterator[ProgressSnapshot]:
        """Run the algorithm, yielding a snapshot after every traversal.

        Exhausting the iterator completes the exact computation; stopping
        early leaves valid (possibly unresolved) bounds in
        :attr:`bounds` — that is the anytime mode kIFECC builds on, now
        available for every metric.
        """
        yield from self._initialise()
        for territory in self._territories:
            yield from self._sweep_territory(territory)

    def _sweep_territory(
        self, territory: Territory
    ) -> Iterator[ProgressSnapshot]:
        """Probe the territory's FFO front to back until it resolves.

        Ranks whose vertex is already known (a reference, or a memoised
        probe of an earlier territory) replay the retained vector.  Each
        run of fresh ranks between them is offered to the oracle, which
        probes a leading prefix of it in one call (one lane sweep, or
        one traversal); the lanes are then applied one at a time in FFO
        order — exact ecc, Lemma 3.1 raise, Lemma 3.3 tail cap and a
        snapshot each, exactly as one-at-a-time probing would — and
        the lanes left over when the territory resolves are dropped,
        counted in :attr:`TraversalCounter.speculative_lanes`.
        """
        bounds = self.bounds
        counter = self.counter
        tracer = self._active_tracer()
        order = territory.ffo.order
        unresolved = bounds.unresolved_subset(territory.members)
        # Ranks holding a known vertex, ascending, then a sentinel.  The
        # known set only grows by this territory's own (earlier) ranks
        # while it is swept, so this list stays valid throughout.
        known = np.zeros(self.oracle.num_vertices, dtype=bool)
        known[list(self._known)] = True
        stops = np.append(np.flatnonzero(known[order]), len(order)).tolist()
        everyone = (
            np.arange(self.oracle.num_vertices, dtype=np.int64)
            if self.memoize_distances
            else None
        )
        rank = 0
        stop = 0
        while len(unresolved) and rank < len(order):
            if rank == stops[stop]:
                stop += 1
                source = int(order[rank])
                if source != territory.reference:
                    unresolved = self._replay(
                        tracer, territory, rank, unresolved
                    )
                rank += 1
                continue
            offer = order[rank: stops[stop]]
            # Memoising needs whole rows; otherwise only the distances to
            # the still-open members are captured.  `cols` locates the
            # open members within `targets` (None: they are `targets`).
            targets = unresolved if everyone is None else everyone
            cols = None if everyone is None else unresolved
            span = self._probe_span(tracer, territory, int(offer[0]), rank)
            eccs, rows = self.oracle.sweep_probes(
                offer, targets, counter=counter
            )
            counter.speculate(len(eccs))
            for lane, ecc_s in enumerate(eccs):
                source = int(offer[lane])
                if lane:
                    span = self._probe_span(tracer, territory, source, rank)
                counter.apply_lane()
                row = rows[lane]
                if ecc_s is not None:
                    # The probe determined ecc(source) exactly, even if
                    # `source` belongs to another territory.  (The
                    # directed oracle's backward BFS yields no forward
                    # eccentricity; its probes skip this step.)
                    bounds.set_exact(source, ecc_s)
                if everyone is not None:
                    self._known[source] = (ecc_s, sanitize.assert_owned(row))
                self._tighten(
                    territory,
                    rank,
                    unresolved,
                    row if cols is None else row[cols],
                )
                snap, gap_mass = self._snapshot(source, span is not None)
                if span is not None:
                    self._finish_probe_span(
                        tracer, span, ecc_s, snap, gap_mass
                    )
                yield snap
                rank += 1
                still = bounds.unresolved_in(unresolved)
                unresolved = unresolved[still]
                if not len(unresolved):
                    break
                cols = np.flatnonzero(still) if cols is None else cols[still]

    def _replay(
        self,
        tracer: Tracer,
        territory: Territory,
        rank: int,
        unresolved: np.ndarray,
    ) -> np.ndarray:
        """Apply a known vertex's retained vector at ``rank``.

        Lemma 3.3 stays sound because the replayed Lemma 3.1 update
        makes the vertex a probed node of this territory, exactly as a
        fresh traversal would.  Returns the still-open members.
        """
        source = int(territory.ffo.order[rank])
        tracer.event(
            "solver.replay",
            source=source,
            territory=territory.reference,
            ffo_rank=rank,
        )
        dist_s = self._known[source][1]
        self._tighten(territory, rank, unresolved, dist_s[unresolved])
        return self.bounds.unresolved_subset(unresolved)

    def _tighten(
        self,
        territory: Territory,
        rank: int,
        unresolved: np.ndarray,
        dist_open: np.ndarray,
    ) -> None:
        """One probe's bound updates for the territory's open members.

        ``dist_open`` is ``dist(v, s)`` for the probe at FFO ``rank``,
        aligned with ``unresolved``: Lemma 3.1 raises the lower bounds,
        Lemma 3.3's shrinking tail caps the upper bounds.
        """
        self.bounds.apply_probe_subset(
            unresolved,
            dist_open,
            territory.dist_into[unresolved],
            territory.ffo.distance_of_rank(rank + 1),
        )

    def _probe_span(
        self, tracer: Tracer, territory: Territory, source: int, rank: int
    ) -> Optional[Any]:
        """An open ``solver.probe`` span for a sweep probe, if tracing."""
        if not tracer.enabled:
            return None
        return tracer.span(
            "solver.probe",
            probe="sweep",
            source=source,
            territory=territory.reference,
            ffo_rank=rank,
            metric=self.oracle.metric_name,
            oracle=getattr(
                self.oracle, "trace_kind", self.oracle.metric_name
            ),
        )

    def _active_tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    def _finish_probe_span(
        self,
        tracer: Tracer,
        span: Any,
        ecc_value: Optional[float],
        snap: ProgressSnapshot,
        gap_mass: Optional[float],
    ) -> None:
        """Attach post-traversal facts to a probe span and close it.

        Only called when tracing is enabled; the gauges mirror the
        event stream so metric consumers see convergence without
        replaying events.  ``gap`` is the remaining bound-gap mass —
        per-vertex ``upper - lower`` capped at the oracle's finite
        eccentricity bound (untouched vertices carry an infinity
        sentinel) and summed — the certificate-size signal the live
        progress monitor plots.  :meth:`_snapshot` computes it with the
        resolved count, in the same pass over the bounds.
        """
        assert gap_mass is not None
        remaining = snap.num_vertices - snap.resolved
        if ecc_value is None:
            ecc_out: Optional[float] = None
        else:
            ecc_out = (
                int(ecc_value)
                if float(ecc_value).is_integer()
                else float(ecc_value)
            )
        gap_out = int(gap_mass) if gap_mass.is_integer() else gap_mass
        span.set(
            ecc=ecc_out,
            traversals=snap.bfs_runs,
            resolved=snap.resolved,
            remaining=remaining,
            gap=gap_out,
        ).finish()
        tracer.metrics.gauge("solver.unresolved").set(remaining)
        tracer.metrics.gauge("solver.gap_mass").set(gap_mass)

    def _snapshot(
        self, source: int, with_gap: bool = False
    ) -> Tuple[ProgressSnapshot, Optional[float]]:
        """The progress snapshot after a probe, plus the gap mass when
        ``with_gap`` (traced probes) — ``None`` otherwise."""
        resolved, gap_mass = self.bounds.progress(
            self.oracle.gap_cap() if with_gap else None
        )
        snap = ProgressSnapshot(
            bfs_runs=self.counter.bfs_runs,
            source=source,
            resolved=resolved,
            num_vertices=self.oracle.num_vertices,
        )
        return snap, gap_mass

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def _algorithm_tag(self) -> str:
        return f"{self.oracle.metric_name}-{self.num_references}"

    def run(self, algorithm: Optional[str] = None) -> EccentricityResult:
        """Run to completion and return the exact ED (Algorithm 2)."""
        tracer = self._active_tracer()
        watch = Stopwatch()
        with tracer.span(
            "solver.run",
            algorithm=(
                algorithm if algorithm is not None else self._algorithm_tag()
            ),
            metric=self.oracle.metric_name,
        ) as run_span:
            for _ in self.steps():
                pass
            run_span.set(traversals=self.counter.bfs_runs)
        elapsed = watch.elapsed()
        if tracer.enabled:
            tracer.metrics.ingest_traversal_counter(self.counter)
        return EccentricityResult(
            eccentricities=self.bounds.eccentricities(),
            lower=self.bounds.lower.copy(),
            upper=self.bounds.upper.copy(),
            exact=True,
            algorithm=(
                algorithm if algorithm is not None else self._algorithm_tag()
            ),
            num_bfs=self.counter.bfs_runs,
            elapsed_seconds=elapsed,
            reference_nodes=self.references.copy(),
            counter=self.counter,
        )

    def run_budgeted(
        self, max_bfs: int, algorithm: Optional[str] = None
    ) -> EccentricityResult:
        """Stop after ``max_bfs`` total traversals; lower bounds become
        the estimate (the anytime by-product of Section 1,
        contribution 5)."""
        if max_bfs < 0:
            raise InvalidParameterError("max_bfs must be non-negative")
        tracer = self._active_tracer()
        watch = Stopwatch()
        exact = True
        with tracer.span(
            "solver.run",
            algorithm=(
                algorithm
                if algorithm is not None
                else f"{self._algorithm_tag()}(budget={max_bfs})"
            ),
            metric=self.oracle.metric_name,
            budget=max_bfs,
        ) as run_span:
            for snapshot in self.steps():
                if snapshot.bfs_runs >= max_bfs:
                    exact = self.bounds.all_resolved()
                    break
            else:
                exact = True
            run_span.set(traversals=self.counter.bfs_runs, exact=exact)
        elapsed = watch.elapsed()
        if tracer.enabled:
            tracer.metrics.ingest_traversal_counter(self.counter)
        return EccentricityResult(
            eccentricities=self.bounds.lower.copy(),
            lower=self.bounds.lower.copy(),
            upper=self.bounds.upper.copy(),
            exact=exact,
            algorithm=(
                algorithm
                if algorithm is not None
                else f"{self._algorithm_tag()}(budget={max_bfs})"
            ),
            num_bfs=self.counter.bfs_runs,
            elapsed_seconds=elapsed,
            reference_nodes=self.references.copy(),
            counter=self.counter,
        )
