"""Graph publication and result buffers for the process backend.

The process backend (:mod:`repro.parallel.pool`) fans batched traversals
out across worker processes.  Shipping a 50M-edge CSR through a pickle
per worker would dwarf the traversals themselves, so the graph crosses
the process boundary exactly once, and always in one byte layout: the
``.rcsr`` container of :mod:`repro.store.format`.

* A graph opened from the binary store (its :func:`repro.store.format.\
source_of` registration is live) publishes its file path.  Workers map
  the same file, so the OS page cache is the shared memory and nothing
  is copied anywhere.
* Any other graph is encoded once by :func:`repro.store.format.\
encode_store` into an auto-named :class:`multiprocessing.shared_memory.\
SharedMemory` segment holding exactly the bytes ``save_store`` would
  write: header and digest, then the aligned slots.

Either way the picklable :class:`SharedGraphSpec` is just a file path
or a segment name, and every worker rebuilds its graph on one path:
the store's header validation followed by
:func:`repro.store.format.graph_from_arrays`, which installs frozen
zero-copy views (reprolint R1, Theorem 4.5's shared ``O(m + n)``
layout).  This module never encodes or decodes CSR bytes itself.

Segments are *borrowed* by workers: a worker closes its handle on
shutdown, and only the publishing parent ever unlinks the name.  The
segment is registered with the stdlib resource tracker, so a publisher
killed outright still leaks nothing.  The same module hands out the
writable result segments the pool's workers fill (:func:`create_segment`,
:func:`attach_array`).  Every entry point is guarded by
:func:`shared_memory_available`, so platforms without POSIX/Windows
shared memory degrade to a clean error instead of an import crash.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from repro.errors import ParallelBackendError, StoreFormatError
from repro.store import format as store_format

try:  # pragma: no cover - import guard exercised only on exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None  # type: ignore[assignment]

__all__ = [
    "shared_memory_available",
    "ArraySpec",
    "SharedGraphSpec",
    "SharedGraph",
    "attach",
    "attach_array",
    "create_segment",
    "publish_graph",
]


def shared_memory_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` works on this platform.

    The process backend (and its test/benchmark suites) gate on this so
    unsupported platforms skip cleanly instead of crashing mid-import.
    """
    return _shared_memory is not None


def _require_shared_memory() -> Any:
    if _shared_memory is None:  # pragma: no cover - platform-specific
        raise ParallelBackendError(
            "multiprocessing.shared_memory is unavailable on this "
            "platform; use backend='numpy'"
        )
    return _shared_memory


@dataclass(frozen=True)
class ArraySpec:
    """Location of one array inside a shared segment (picklable)."""

    key: str
    offset: int
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedGraphSpec:
    """Where a worker finds a published graph's ``.rcsr`` bytes.

    Exactly one field is set: ``path`` names a store file, ``segment``
    a shared-memory segment holding a container image.
    """

    segment: str = ""
    path: Optional[str] = None


def _ensure_resource_tracker() -> None:
    """Start the multiprocessing resource tracker in this process."""
    try:  # pragma: no cover - absent only on exotic platforms
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except (ImportError, OSError):  # pragma: no cover
        pass


def create_segment(nbytes: int) -> Any:
    """A fresh auto-named shared segment of at least ``nbytes`` bytes."""
    shm = _require_shared_memory()
    return shm.SharedMemory(create=True, size=max(1, int(nbytes)))


def attach_array(segment: Any, spec: ArraySpec) -> np.ndarray:
    """A writable numpy view of ``spec`` inside an attached ``segment``.

    The view aliases the mapped buffer directly — mutating it mutates
    the shared bytes.  Result buffers (:mod:`repro.parallel.pool`) are
    written through these views.
    """
    return np.ndarray(
        spec.shape,
        dtype=np.dtype(spec.dtype),
        buffer=segment.buf,
        offset=spec.offset,
    )


class SharedGraph:
    """Owner side of one published graph: segment (if any) + spec.

    Create with :func:`publish_graph`; hand :attr:`spec` to workers;
    call :meth:`unlink` exactly once when the last worker is gone.
    Usable as a context manager.  A store-backed publication owns no
    segment, and :meth:`unlink` leaves the store file alone.
    """

    def __init__(self, segment: Any, spec: SharedGraphSpec) -> None:
        self._segment = segment
        self.spec = spec
        self._released = False

    @property
    def name(self) -> str:
        """The shared segment's system-wide name (or the store path)."""
        if self._segment is None:
            return str(self.spec.path)
        return str(self._segment.name)

    def unlink(self) -> None:
        """Close the owner handle and remove the segment name.

        Idempotent; workers that still hold attached handles keep their
        mapping until they close it (POSIX unlink semantics).  A
        file-backed publication owns nothing — the store file stays.
        """
        if self._released:
            return
        self._released = True
        if self._segment is None:
            return
        self._segment.close()
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - double-unlink race
            pass

    def __enter__(self) -> "SharedGraph":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.unlink()


def publish_graph(graph: Any) -> SharedGraph:
    """Publish ``graph`` for worker processes as ``.rcsr`` bytes.

    A store-backed graph publishes its file path and copies nothing.
    Anything else is encoded into a fresh shared-memory segment; the
    ``O(m)`` content digest is the only work beyond the copy.
    """
    info = store_format.source_of(graph)
    if info is not None and os.path.exists(info.path):
        # Creating a segment starts the resource tracker as a side
        # effect; the file path creates nothing, so start it here.
        # Workers forked afterwards inherit the parent's tracker, and
        # their result-segment attaches register with it instead of a
        # private tracker that would later report names the parent
        # already unlinked as leaks.
        _ensure_resource_tracker()
        return SharedGraph(None, SharedGraphSpec(path=str(info.path)))
    image = store_format.encode_store(graph)
    segment = create_segment(image.nbytes)
    share = SharedGraph(segment, SharedGraphSpec(segment=segment.name))
    try:
        for offset, chunk in image.chunks():
            segment.buf[offset: offset + len(chunk)] = chunk
    except BaseException:
        share.unlink()
        raise
    return share


def attach(spec: SharedGraphSpec) -> Tuple[Any, Any]:
    """Worker side: rebuild the published graph over its ``.rcsr`` bytes.

    Returns ``(graph, segment)``; ``segment`` is ``None`` for a store
    file.  The caller owns a returned segment handle and must
    ``segment.close()`` when done, since the graph's arrays alias it.

    A note on the CPython resource tracker: attaching registers the
    name with the tracker just like creating does (bpo-38119).  Pool
    workers are always *children* of the publishing process, so they
    share its tracker and the registration is a set-membership no-op —
    the name stays tracked until the publisher unlinks it, and a parent
    killed before cleanup still gets the segment reclaimed at tracker
    exit.  Attaching from an unrelated process (not a descendant of the
    publisher) is outside this module's contract.
    """
    if spec.path is not None:
        try:
            info = store_format.read_info(spec.path)
            views = store_format.map_store_arrays(info)
            return store_format.graph_from_arrays(info, views), None
        except (OSError, ValueError, StoreFormatError) as exc:
            raise ParallelBackendError(
                f"store file {spec.path!r} has vanished or is damaged "
                f"(publisher's store deleted?): {exc}"
            ) from exc
    shm = _require_shared_memory()
    try:
        segment = shm.SharedMemory(name=spec.segment)
    except FileNotFoundError as exc:
        raise ParallelBackendError(
            f"shared graph segment {spec.segment!r} has vanished "
            "(publisher gone?)"
        ) from exc
    try:
        info = store_format.parse_header(
            bytes(segment.buf[: store_format.HEADER_SIZE]),
            segment.size,
            f"segment {spec.segment}",
        )
        views = store_format.image_arrays(info, segment.buf)
        return store_format.graph_from_arrays(info, views), segment
    except StoreFormatError as exc:
        segment.close()
        raise ParallelBackendError(
            f"shared graph segment {spec.segment!r} is damaged: {exc}"
        ) from exc
