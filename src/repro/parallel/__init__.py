"""Multiprocessing traversal backend behind the oracle seam.

``repro.parallel`` is the ``backend="process"`` implementation selected
on :class:`repro.core.oracles.BFSOracle`, the solver constructors and
the CLI.  The graph is published once in the ``.rcsr`` byte layout of
:mod:`repro.store.format` — its store file, or the same container image
in a shared-memory segment (:mod:`repro.parallel.shm`).  A persistent
per-graph worker pool maps it zero-copy (:mod:`repro.parallel.pool`),
and batched traversal entry points fan out across workers while single
probes stay in-process (:mod:`repro.parallel.oracle`).  Results are bit-identical to the numpy
backend — parallelism changes speed, never answers.
"""

from __future__ import annotations

from repro.parallel.oracle import ParallelBFSOracle
from repro.parallel.pool import (
    TraversalPool,
    pool_for,
    resolve_workers,
    shutdown_pools,
)
from repro.parallel.shm import SharedGraph, shared_memory_available

__all__ = [
    "ParallelBFSOracle",
    "TraversalPool",
    "pool_for",
    "shutdown_pools",
    "resolve_workers",
    "SharedGraph",
    "shared_memory_available",
]
