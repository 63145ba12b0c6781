"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so a
caller can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphConstructionError",
    "DisconnectedGraphError",
    "InvalidParameterError",
    "InvalidVertexError",
    "DatasetNotFoundError",
    "BudgetExhaustedError",
    "SanitizerError",
    "ParallelBackendError",
    "StoreFormatError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphConstructionError(ReproError):
    """Raised when an edge list or adjacency input cannot form a valid graph."""


class DisconnectedGraphError(ReproError):
    """Raised when an algorithm requiring a connected graph receives one that
    is disconnected.

    The paper (footnote 2) assumes a connected graph; callers can either
    extract the largest connected component with
    :func:`repro.graph.components.largest_connected_component` or run the
    per-component driver :func:`repro.core.ifecc.eccentricities_per_component`.
    """

    def __init__(self, num_components: int, message: str = "") -> None:
        self.num_components = num_components
        if not message:
            message = (
                f"graph is disconnected ({num_components} components); "
                "extract the largest component or use the per-component driver"
            )
        super().__init__(message)


class InvalidParameterError(ReproError):
    """Raised when an algorithm parameter is out of its documented range."""


class InvalidVertexError(ReproError):
    """Raised when a vertex id is outside ``[0, n)`` for the given graph."""

    def __init__(self, vertex: int, num_vertices: int) -> None:
        self.vertex = vertex
        self.num_vertices = num_vertices
        super().__init__(
            f"vertex {vertex} is out of range for a graph with "
            f"{num_vertices} vertices"
        )


class DatasetNotFoundError(ReproError):
    """Raised when a dataset name is not present in the registry."""


class SanitizerError(ReproError, ValueError):
    """Raised by the runtime workspace sanitizer (:mod:`repro.sanitize`).

    Fires when code violates the buffer-ownership discipline the static
    rules (reprolint R9-R11) encode: reading a pooled distance vector
    after the engine's next run invalidated it, re-entering a pooled
    kernel mid-run, or writing a frozen CSR array.

    Also a :class:`ValueError` so callers (and tests) that guard the
    numpy read-only flag keep working unchanged when the sanitizer
    upgrades the flag violation to a diagnosis with a borrow site.
    """


class BudgetExhaustedError(ReproError):
    """Raised when an algorithm exceeds its configured BFS or time budget."""

    def __init__(self, budget: float, message: str = "") -> None:
        self.budget = budget
        super().__init__(message or f"computation budget exhausted ({budget})")


class StoreFormatError(ReproError):
    """Raised by the binary graph store (:mod:`repro.store`).

    Fires when a ``.rcsr`` container cannot be trusted: bad magic,
    newer-than-supported version, truncated header or payload,
    misaligned slot offsets, a row-pointer array that is not monotone,
    or (under ``verify``) a content fingerprint that no longer matches
    the header digest.
    """


class ParallelBackendError(ReproError, RuntimeError):
    """Raised by the traversal thread pool (:mod:`repro.parallel`).

    Fires when a pool cannot deliver a batch: the pool was closed, its
    graph no longer exists, or a task raised (its traceback is carried
    in the message).  Also a :class:`RuntimeError` so generic
    infrastructure guards catch it without importing this module.
    """
