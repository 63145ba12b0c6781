"""Pluggable distance oracles for the metric-generic solver core.

Lemmas 3.1 and 3.3 are pure triangle inequalities — valid for *any*
shortest-path metric — so the whole of Algorithm 2 is really one
bound-tightening loop parameterised over "how do I get single-source
distances and an eccentricity?".  :class:`DistanceOracle` is that
parameter: the structural protocol every metric back-end implements so
:class:`repro.core.solver.EccentricitySolver` (and the generic extremes
driver in :mod:`repro.core.extremes`) can run unchanged over

* unweighted BFS hops — :class:`BFSOracle` (this module), wrapping the
  pooled direction-optimizing :class:`repro.graph.engine.BFSEngine`;
* non-negative edge weights — ``DijkstraOracle``
  (:mod:`repro.weighted.dijkstra`);
* directed reachability — ``DirectedBFSOracle``
  (:mod:`repro.directed.traversal`), whose probes are *backward* BFS
  runs (the reverse-distance hook).

The two probe flavours mirror how Algorithm 2 consumes traversals:

``source_probe``
    The full Lemma 3.1 package for a source ``t``: exact ``ecc(t)``,
    the forward distances ``dist(t, .)`` (which seed FFOs and
    territories) and the reverse distances ``dist(., t)`` (which drive
    both bound directions).  Symmetric metrics return the *same* array
    for both — one traversal; the directed oracle pays a
    forward + backward pair.

``sweep_probes``
    The cheap probes of the FFO sweep.  The solver offers the next FFO
    candidates together with the vertices whose distances it still
    needs (``targets``, the territory's unresolved members); the oracle
    answers for a *leading prefix* of the offer, whose length it
    chooses: ``ecc(s)`` *when the traversal yields it* (symmetric
    metrics: yes; the directed backward BFS: no — ``None``, and the
    solver skips the ``set_exact`` step, exactly as the directed Lemma
    3.3 argument requires) and the reverse distances ``dist(t, s)`` for
    every target ``t``.  Every probe's distances are valid bounds, so
    sweeping candidates the solver turns out not to need costs time,
    never answers.  :class:`BFSOracle` answers a prefix with one lane
    sweep of :class:`repro.graph.msengine.MSBFSEngine` when
    :func:`repro.graph.msengine.plan_probe_lanes` says lanes pay, else
    with one single-source traversal; the weighted and directed oracles
    always answer one.

The returned distance rows are always caller-owned: a lane sweep
allocates them, and a single traversal's pooled vector is gathered into
a fresh row before it is returned.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.counters import TraversalCounter
from repro.core.reference import get_strategy
from repro.errors import DisconnectedGraphError, InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.engine import BFSEngine, engine_for
from repro.graph.msengine import (
    MSBFSEngine,
    batch_distance_rows,
    plan_probe_lanes,
)
from repro.parallel.pool import TraversalPool, pool_for, resolve_workers

__all__ = ["DistanceOracle", "BFSOracle"]


@runtime_checkable
class DistanceOracle(Protocol):
    """Metric back-end of the generic eccentricity solver.

    Attributes
    ----------
    num_vertices:
        Vertex count of the underlying graph.
    dtype:
        Distance dtype (``int32`` hops or ``float64`` weights); the
        solver sizes its :class:`repro.core.bounds.BoundState` with it.
    tolerance:
        Bound-comparison slack (0 for integer metrics).
    symmetric:
        ``True`` when ``dist(u, v) == dist(v, u)`` — lets the solver
        skip redundant reverse traversals and connectivity checks.
    metric_name:
        Tag prefix for :class:`repro.core.result.EccentricityResult`.
    trace_kind:
        Traversal-kind tag carried on ``solver.probe`` spans (``"bfs"``,
        ``"dijkstra"``, ``"bfs-directed"``) so trace consumers can tell
        what kind of traversal each span timed.
    """

    num_vertices: int
    dtype: np.dtype
    tolerance: float
    symmetric: bool
    metric_name: str
    trace_kind: str

    def select_references(
        self, strategy: str, count: int, seed: int
    ) -> np.ndarray:
        """The reference set ``Z`` (Algorithm 2, line 1).

        :dtype references: int32
        """
        ...  # pragma: no cover - protocol

    def source_probe(
        self,
        source: int,
        counter: Optional[TraversalCounter] = None,
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        """``(ecc(source), dist(source, .), dist(., source))``.

        Symmetric oracles return the same (caller-owned) array twice;
        the directed oracle runs a forward + backward traversal pair.
        """
        ...  # pragma: no cover - protocol

    def sweep_probes(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        counter: Optional[TraversalCounter] = None,
    ) -> Tuple[List[Optional[float]], np.ndarray]:
        """Probe a leading prefix of ``sources`` (at least one).

        Returns ``(eccs, rows)`` for the ``k`` probed sources
        ``sources[:k]``: ``eccs[j]`` is ``ecc(sources[j])`` or ``None``
        when the traversal does not yield it, and the caller-owned
        ``(k, len(targets))`` matrix ``rows[j, i]`` is
        ``dist(targets[i], sources[j])``.  The counter is credited one
        traversal per probed source.
        """
        ...  # pragma: no cover - protocol

    def disconnected_error(self) -> DisconnectedGraphError:
        """The error describing why the metric's solver cannot run."""
        ...  # pragma: no cover - protocol

    def gap_cap(self) -> float:
        """A finite bound on any vertex's eccentricity (gap accounting)."""
        ...  # pragma: no cover - protocol


class BFSOracle:
    """The unweighted hop-count oracle (the paper's own setting).

    Wraps the per-graph cached, pooled-workspace
    :class:`repro.graph.engine.BFSEngine` and its lane sibling
    :class:`repro.graph.msengine.MSBFSEngine`.  ``sweep_probes`` runs
    one lane sweep over a prefix of the offered FFO candidates when
    :func:`~repro.graph.msengine.plan_probe_lanes` says lanes pay (few
    targets on a large graph: the sweep captures just those columns),
    else one pooled BFS whose target distances it gathers;
    ``source_probe`` copies — its vector is retained by FFOs and
    territories.

    ``workers`` decides how the *batched* entry points
    (:meth:`ecc_all`, :meth:`distance_rows`) execute: ``1`` (the
    default) runs them in the calling thread, any other count (or
    ``None``, every usable core) fans them out over the threads of a
    :class:`repro.parallel.pool.TraversalPool`.  Solver probes
    (``source_probe``/``sweep_probes``) always stay on the caller's
    engines — one traversal is cheaper than a thread hand-off — so the
    solver's sequential bound-tightening loop is the same code under
    every worker count.
    """

    dtype = np.dtype(np.int32)
    tolerance = 0.0
    symmetric = True
    metric_name = "IFECC"
    trace_kind = "bfs"

    def __init__(
        self,
        graph: Graph,
        engine: Optional[BFSEngine] = None,
        workers: Optional[int] = 1,
    ) -> None:
        if workers is not None:
            resolve_workers(workers)
        self.graph = graph
        self.num_vertices = graph.num_vertices
        self.engine = engine if engine is not None else engine_for(graph)
        self.workers = workers
        # The lane probes' engine, built on the first lane sweep.  It is
        # the oracle's own rather than msengine_for's cached one, so its
        # bitmaps (about 53 bytes per vertex) are freed with the solve
        # instead of staying pinned to every graph a process has solved.
        self._lanes: Optional[MSBFSEngine] = None

    @property
    def pool(self) -> TraversalPool:
        """The thread pool behind batched dispatch (``workers != 1``)."""
        if self.workers == 1:
            raise InvalidParameterError("workers=1 runs without a pool")
        return pool_for(self.graph, workers=self.workers)

    # -- batched entry points ------------------------------------------
    def ecc_all(
        self,
        sources: Optional[Sequence[int]] = None,
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """Eccentricity of every source (default: all vertices).

        The naive full-ED sweep behind one call: :meth:`BFSEngine.
        ecc_batch` in the calling thread, or its sweeps spread over the
        pool's threads.  Bit-identical either way.

        :dtype ecc: int32
        """
        if self.workers != 1:
            return self.pool.eccentricities(sources, counter=counter)
        src = (
            np.arange(self.num_vertices, dtype=np.int64)
            if sources is None
            else np.ascontiguousarray(sources, dtype=np.int64)
        )
        return self.engine.ecc_batch(src, counter=counter)

    def distance_rows(
        self,
        sources: Sequence[int],
        counter: Optional[TraversalCounter] = None,
    ) -> np.ndarray:
        """Full distance vectors, one caller-owned row per source.

        Used by reference scans that need every ``dist(z, .)`` — the
        batched sibling of calling :meth:`source_probe` in a loop.  It
        runs the bit-parallel lane sweeps of :func:`repro.graph.
        msengine.batch_distance_rows` (identical rows, one sweep per
        lane group instead of one BFS per source), on the pool's
        threads when ``workers != 1``.

        :dtype rows: int32
        """
        if self.workers != 1:
            return self.pool.distance_rows(sources, counter=counter)
        src = np.ascontiguousarray(sources, dtype=np.int64)
        return batch_distance_rows(self.graph, src, counter=counter)

    def select_references(
        self, strategy: str, count: int, seed: int
    ) -> np.ndarray:
        return get_strategy(strategy)(self.graph, count, seed)

    def source_probe(
        self,
        source: int,
        counter: Optional[TraversalCounter] = None,
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        dist = self.engine.run(source, counter=counter).copy()
        return self.engine.last_ecc, dist, dist

    def sweep_probes(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        counter: Optional[TraversalCounter] = None,
    ) -> Tuple[List[Optional[float]], np.ndarray]:
        lanes = plan_probe_lanes(self.num_vertices, len(targets), len(sources))
        if lanes == 0:
            dist = self.engine.run(int(sources[0]), counter=counter)
            # np.take gathers into a fresh, owned row (also under the
            # sanitizer, where `dist` is a guarded loan).
            return [self.engine.last_ecc], np.take(dist, targets)[np.newaxis]
        if self._lanes is None:
            self._lanes = MSBFSEngine(self.graph)
        ecc, rows = self._lanes.probe_batch(
            sources[:lanes], targets, counter=counter
        )
        return ecc.tolist(), rows

    def disconnected_error(self) -> DisconnectedGraphError:
        from repro.graph.components import split_components

        return DisconnectedGraphError(
            num_components=len(split_components(self.graph))
        )

    def gap_cap(self) -> float:
        # Any hop eccentricity is < n.
        return float(self.num_vertices)
