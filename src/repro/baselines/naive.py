"""The naive |V|-BFS exact baseline.

One BFS per vertex — the quadratic straw man every other algorithm is
measured against, and the simplest possible correctness oracle.  Being
embarrassingly parallel over sources, it is also the first customer of
the thread pool: ``workers=2`` fans the full-ED sweep out over two
threads (:mod:`repro.parallel`) with bit-identical output.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.result import EccentricityResult
from repro.errors import InvalidParameterError
from repro.graph.csr import Graph
from repro.graph.traversal import TraversalCounter, eccentricity_and_distances
from repro.obs.trace import Stopwatch
from repro.parallel.pool import pool_for

__all__ = ["naive_eccentricities"]


def naive_eccentricities(
    graph: Graph,
    counter: Optional[TraversalCounter] = None,
    workers: Optional[int] = 1,
    traversal: str = "batch",
) -> EccentricityResult:
    """Exact ED with one BFS per vertex (eccentricity within components).

    ``workers=1`` (default) runs the sweep in the calling thread; any
    other count (``None``: every core) spreads its sweeps over that
    many threads.  ``traversal`` picks the single-thread sweep flavour:
    ``"batch"`` (default) shares bit-parallel MS-BFS lane sweeps via
    :meth:`repro.graph.engine.BFSEngine.ecc_batch`, ``"loop"`` keeps
    the historical one-BFS-per-vertex loop (the honest quadratic straw
    man for ablations).  All paths produce the same eccentricities bit
    for bit; the algorithm tag records how many threads ran.

    :dtype ecc: int32
    """
    if traversal not in ("batch", "loop"):
        raise InvalidParameterError(
            f"traversal must be 'batch' or 'loop', got {traversal!r}"
        )
    counter = counter if counter is not None else TraversalCounter()
    watch = Stopwatch()
    n = graph.num_vertices
    if workers != 1:
        pool = pool_for(graph, workers=workers)
        ecc = pool.eccentricities(counter=counter)
        algorithm = f"Naive(threads x{pool.workers})"
    elif traversal == "batch":
        from repro.graph.engine import engine_for

        ecc = engine_for(graph).ecc_batch(
            np.arange(n, dtype=np.int64), counter=counter
        )
        algorithm = "Naive"
    else:
        ecc = np.zeros(n, dtype=np.int32)
        for v in range(n):
            ecc[v], _dist = eccentricity_and_distances(
                graph, v, counter=counter
            )
        algorithm = "Naive"
    elapsed = watch.elapsed()
    return EccentricityResult(
        eccentricities=ecc,
        lower=ecc.copy(),
        upper=ecc.copy(),
        exact=True,
        algorithm=algorithm,
        num_bfs=counter.bfs_runs,
        elapsed_seconds=elapsed,
        counter=counter,
    )
