"""Thread fan-out of batched traversals.

``repro.parallel`` is what ``workers != 1`` selects on
:class:`repro.core.oracles.BFSOracle`, the solver constructors, the
batch routers and the CLI.  A :class:`~repro.parallel.pool.
TraversalPool` runs a batch's sweeps on threads over the caller's own
graph; the native kernels release the GIL for each sweep.  Single
probes stay on the caller's engine.  Results are bit-identical to
``workers=1`` — parallelism changes speed, never answers.
"""

from __future__ import annotations

from repro.parallel.pool import (
    TraversalPool,
    pool_for,
    resolve_workers,
    shutdown_pools,
)

__all__ = [
    "TraversalPool",
    "pool_for",
    "shutdown_pools",
    "resolve_workers",
]
