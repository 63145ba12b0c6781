"""IFECC — Index-Free Eccentricity Computation (Algorithm 2, Section 4).

IFECC plugs the farthest-first node order (FFO) of a handful of reference
nodes into the BFS-framework:

1. select ``r`` highest-degree reference nodes ``Z`` (line 1);
2. one BFS per ``z`` in ``Z`` yields ``ecc(z)`` and the FFO ``L^z``
   (lines 2–4);
3. every other vertex joins the *territory* ``V^z`` of its closest
   reference and has its bounds seeded by Lemma 3.1 (lines 5–9);
4. for each ``z``, BFS from the nodes of ``L^z`` front-to-back; each BFS
   gives exact distances, so Lemma 3.1 tightens lower bounds and
   Lemma 3.3 caps upper bounds for the territory, until every territory
   member's bounds meet (lines 10–18).

The loop itself lives in the metric-generic
:class:`repro.core.solver.EccentricitySolver`; :class:`IFECC` is its
unweighted instantiation over :class:`repro.core.oracles.BFSOracle` —
``int32`` hop counts, exact (zero-tolerance) bound comparison, one
pooled-workspace BFS per probe, or one MS-BFS lane sweep for a run of
late probes on large graphs.  The class is bit-identical to the
pre-unification implementation: same probe sequence, BFS counts,
snapshots and results.

The engine is *anytime*: :meth:`IFECC.steps` yields a snapshot after each
BFS, which is exactly how Algorithm 3 (kIFECC, :mod:`repro.core.kifecc`)
and the budget-matched SNAP comparison (Figure 14) consume it.

Space is ``O(m + n)`` (Theorem 4.5): the graph, the bound arrays, and the
``r`` reference distance vectors.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.oracles import BFSOracle
from repro.core.result import EccentricityResult
from repro.core.solver import EccentricitySolver
from repro.errors import InvalidParameterError
from repro.graph.components import split_components
from repro.graph.csr import Graph
from repro.graph.traversal import TraversalCounter
from repro.obs.trace import Stopwatch

__all__ = ["IFECC", "compute_eccentricities", "eccentricities_per_component"]


class IFECC(EccentricitySolver):
    """The IFECC engine — :class:`EccentricitySolver` over hop counts.

    Parameters
    ----------
    graph:
        Connected, undirected input graph.  (Disconnected graphs raise
        :class:`repro.errors.DisconnectedGraphError`; use
        :func:`eccentricities_per_component` instead.)
    num_references:
        ``r``, the reference-node count.  The paper's headline
        configuration is ``r = 1`` (Section 4.3: "one reference node is
        enough"); ``r = 16`` matches PLLECC's default and Figure 9's sweep.
    strategy:
        Reference-selection rule: ``"degree"`` (paper default),
        ``"random"``, or ``"center"`` — see :mod:`repro.core.reference`.
    seed:
        Seed for stochastic strategies; ignored by ``"degree"``.
    memoize_distances:
        Algorithm 2 re-runs a BFS when a vertex sits at the FFO front of
        several references (the redundancy Section 4.3 quantifies in
        Figure 5).  With this flag the engine instead caches each BFS
        source's distance vector and replays it — the "memorize the
        computed results" trade-off the paper notes costs additional
        space (``O(#BFS * n)``), so it is off by default.  Distance
        vectors of the reference nodes themselves are always reused;
        they are stored anyway.
    counter:
        Optional shared :class:`TraversalCounter` for cost accounting.
    workers:
        Threads for the oracle's *batched* entry points (``1``, the
        default, runs them in the calling thread; ``None`` uses every
        core — see :mod:`repro.parallel`).  The sequential
        bound-tightening probes always run on the caller's engine, so
        IFECC results are identical for every count; the knob matters
        to the batched reference scans and to callers sharing the
        oracle.
    """

    def __init__(
        self,
        graph: Graph,
        num_references: int = 1,
        strategy: str = "degree",
        seed: int = 0,
        memoize_distances: bool = False,
        counter: Optional[TraversalCounter] = None,
        workers: Optional[int] = 1,
    ) -> None:
        if num_references < 1:
            raise InvalidParameterError("num_references must be >= 1")
        if graph.num_vertices == 0:
            raise InvalidParameterError("graph must have at least one vertex")
        self.graph = graph
        oracle = BFSOracle(graph, workers=workers)
        super().__init__(
            oracle,
            num_references=num_references,
            strategy=strategy,
            seed=seed,
            memoize_distances=memoize_distances,
            counter=counter,
        )
        # Kept for introspection/back-compat: the shared pooled-workspace
        # BFS engine behind the oracle.
        self._engine = oracle.engine


def compute_eccentricities(
    graph: Graph,
    num_references: int = 1,
    strategy: str = "degree",
    seed: int = 0,
    counter: Optional[TraversalCounter] = None,
    workers: Optional[int] = 1,
) -> EccentricityResult:
    """Compute the exact eccentricity distribution with IFECC.

    This is the library's headline entry point — the index-free, exact,
    ``O(m + n)``-space algorithm of the paper with its recommended
    ``r = 1`` default.  ``workers`` sets the threads for batched
    probes (results do not depend on it).

    Examples
    --------
    >>> from repro.graph.generators import paper_example_graph
    >>> result = compute_eccentricities(paper_example_graph())
    >>> result.radius, result.diameter
    (3, 5)
    """
    engine = IFECC(
        graph,
        num_references=num_references,
        strategy=strategy,
        seed=seed,
        counter=counter,
        workers=workers,
    )
    return engine.run()


def eccentricities_per_component(
    graph: Graph,
    num_references: int = 1,
    strategy: str = "degree",
    seed: int = 0,
) -> EccentricityResult:
    """IFECC on each connected component (paper footnote 2).

    Eccentricities are taken within each vertex's component; isolated
    vertices get eccentricity 0.
    """
    n = graph.num_vertices
    ecc = np.zeros(n, dtype=np.int32)
    counter = TraversalCounter()
    watch = Stopwatch()
    num_refs_used: List[int] = []
    for subgraph, original_ids in split_components(graph):
        if subgraph.num_vertices == 1:
            ecc[original_ids] = 0
            continue
        result = compute_eccentricities(
            subgraph,
            num_references=num_references,
            strategy=strategy,
            seed=seed,
            counter=counter,
        )
        ecc[original_ids] = result.eccentricities
        num_refs_used.extend(
            int(original_ids[z]) for z in result.reference_nodes
        )
    elapsed = watch.elapsed()
    return EccentricityResult(
        eccentricities=ecc,
        lower=ecc.copy(),
        upper=ecc.copy(),
        exact=True,
        algorithm=f"IFECC-{num_references}(per-component)",
        num_bfs=counter.bfs_runs,
        elapsed_seconds=elapsed,
        reference_nodes=np.asarray(num_refs_used, dtype=np.int32),
        counter=counter,
    )
