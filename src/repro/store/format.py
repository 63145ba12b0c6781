"""The ``.rcsr`` v1 on-disk binary CSR container.

Every run used to re-parse edge lists (or re-generate stand-ins) and
rebuild CSR from scratch — an ``O(m)`` cold start that caps benchmark
scale and makes a long-running eccentricity service's startup
unacceptable.  A ``.rcsr`` file stores the frozen CSR arrays exactly as
the in-memory layout wants them, so opening a graph is a header read
plus ``np.memmap`` views: no parse, no copy, no validation re-run over
the adjacency — and multiple processes opening the same file share
pages through the OS cache.

Byte layout (v1, little-endian)
-------------------------------
::

    offset   0   8s   magic  b"\\x93RCSR\\r\\n\\x00"
    offset   8   H    container version (1)
    offset  10   H    flags (bit 0: weights slot present)
    offset  12   B    kind code (1 graph, 2 weighted, 3 directed)
    offset  13   3x   pad
    offset  16   q    num_vertices
    offset  24   q    num_entries (len(indices) == len(rev_indices))
    offset  32   16s  content digest — the 16-hex-char SHA-256 prefix
                      from :func:`repro.obs.record.graph_fingerprint`
    offset  48   5 × (B dtype code, 7x pad, q offset, q length)
                      slot table, fixed order: indptr, indices,
                      weights, rev_indptr, rev_indices
    offset 168   pad to HEADER_SIZE (512)

Array payloads follow at 64-byte-aligned offsets (cache-line clean,
and page-aligned enough for the mmap path; the header itself is one
aligned block).  Unused slots carry dtype code 0.

Opening validates the header structurally — magic, version, kind and
dtype codes, offsets in bounds and aligned, ``indptr`` monotone
non-decreasing with the right endpoints — all cheap vectorised reads
over the mapped pages.  The *content* digest is only recomputed when
``verify=True`` (or via :func:`verify_store` / ``repro store verify``):
a full hash is ``O(m)`` and would defeat the constant-time open that is
the point of the format.

Versioning rules: readers reject any file whose ``version`` is newer
than :data:`STORE_VERSION`; additive changes (new slot, new flag bit)
bump the version and stay readable by tolerating unknown trailing slots
only if a future revision defines them — v1 readers are strict.

:func:`encode_store` builds the container image that :func:`save_store`
writes, and :func:`parse_header` reads one back, so this module is the
only place that encodes or decodes graph bytes.
"""

from __future__ import annotations

import os
import struct
import threading
import weakref
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro import sanitize
from repro.errors import StoreFormatError
from repro.graph.csr import Graph
from repro.obs.record import graph_fingerprint

__all__ = [
    "STORE_VERSION",
    "HEADER_SIZE",
    "MAGIC",
    "ALIGN",
    "SUFFIX",
    "StoreArray",
    "StoreInfo",
    "StoreImage",
    "encode_store",
    "save_store",
    "read_info",
    "parse_header",
    "map_store_arrays",
    "graph_from_arrays",
    "open_store",
    "verify_store",
    "register_source",
    "source_of",
]

PathLike = Union[str, os.PathLike]

MAGIC = b"\x93RCSR\r\n\x00"
STORE_VERSION = 1
HEADER_SIZE = 512
#: Payload alignment in bytes: cache-line clean, and every slot's
#: offset is a multiple of its dtype's itemsize.
ALIGN = 64
#: Canonical file suffix for store containers.
SUFFIX = ".rcsr"

#: Bit 0 of ``flags``: the weights slot is populated.
FLAG_WEIGHTS = 0x1

_FIXED = struct.Struct("<8sHHB3xqq16s")
_SLOT = struct.Struct("<B7xqq")

#: Slot order is part of the v1 byte layout — never reorder.
_SLOT_KEYS = ("indptr", "indices", "weights", "rev_indptr", "rev_indices")

_KIND_CODES = {"graph": 1, "weighted": 2, "directed": 3}
_KIND_NAMES = {code: name for name, code in _KIND_CODES.items()}

_DTYPE_CODES = {"int64": 1, "int32": 2, "float64": 3}
_DTYPE_NAMES = {code: name for name, code in _DTYPE_CODES.items()}

#: Expected dtype per slot (Theorem 4.5's canonical CSR dtypes).
_SLOT_DTYPES = {
    "indptr": "int64",
    "indices": "int32",
    "weights": "float64",
    "rev_indptr": "int64",
    "rev_indices": "int32",
}


@dataclass(frozen=True)
class StoreArray:
    """Location of one CSR array inside a store file."""

    key: str
    dtype: str
    offset: int
    length: int

    @property
    def nbytes(self) -> int:
        """Payload size of this slot in bytes."""
        return self.length * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class StoreInfo:
    """Parsed header of one ``.rcsr`` container."""

    path: str
    kind: str
    version: int
    flags: int
    num_vertices: int
    num_entries: int
    digest: str
    arrays: Tuple[StoreArray, ...]

    def array(self, key: str) -> StoreArray:
        """The slot named ``key`` (raises when absent)."""
        for entry in self.arrays:
            if entry.key == key:
                return entry
        raise StoreFormatError(
            f"{self.path}: store has no {key!r} slot (kind={self.kind})"
        )

    @property
    def file_bytes(self) -> int:
        """Total container size implied by the slot table."""
        end = HEADER_SIZE
        for entry in self.arrays:
            end = max(end, entry.offset + entry.nbytes)
        return end


def _pad(nbytes: int) -> int:
    return (nbytes + ALIGN - 1) // ALIGN * ALIGN


def _kind_of(graph: Any) -> str:
    """Duck-typed graph flavour: directed / weighted / plain CSR."""
    if hasattr(graph, "forward_view"):
        return "directed"
    if getattr(graph, "weights", None) is not None:
        return "weighted"
    if getattr(graph, "indptr", None) is not None:
        return "graph"
    raise StoreFormatError(
        f"cannot store object of type {type(graph).__name__}; expected "
        "Graph, WeightedGraph, or DirectedGraph"
    )


def _extract_arrays(graph: Any, kind: str) -> Dict[str, np.ndarray]:
    """The storable CSR arrays of ``graph``, keyed by slot name."""
    if kind == "graph":
        return {"indptr": graph.indptr, "indices": graph.indices}
    if kind == "weighted":
        return {
            "indptr": graph.indptr,
            "indices": graph.indices,
            "weights": graph.weights,
        }
    fwd_indptr, fwd_indices = graph.forward_view()
    rev_indptr, rev_indices = graph.backward_view()
    return {
        "indptr": fwd_indptr,
        "indices": fwd_indices,
        "rev_indptr": rev_indptr,
        "rev_indices": rev_indices,
    }


@dataclass(frozen=True)
class StoreImage:
    """A graph encoded as a ``.rcsr`` container, not yet written anywhere.

    :meth:`chunks` yields the header and each slot payload at its byte
    offset; the gaps between them are zero padding.  :func:`save_store`
    streams the chunks into a file.
    """

    info: StoreInfo
    header: bytes
    payloads: Tuple[np.ndarray, ...]

    @property
    def nbytes(self) -> int:
        """Total container size in bytes."""
        return self.info.file_bytes

    def chunks(self) -> Iterator[Tuple[int, memoryview]]:
        """``(offset, bytes)`` pairs in ascending offset order."""
        yield 0, memoryview(self.header)
        for entry, array in zip(self.info.arrays, self.payloads):
            yield entry.offset, memoryview(array).cast("B")


def encode_store(graph: Any) -> StoreImage:
    """Encode ``graph`` as a ``.rcsr`` v1 container image.

    Works on all three graph flavours (:class:`~repro.graph.csr.Graph`,
    ``WeightedGraph``, ``DirectedGraph``).  The payloads alias the
    graph's own arrays wherever they are already contiguous; the only
    ``O(m)`` work is the content digest.  ``info.path`` is empty.
    """
    kind = _kind_of(graph)
    arrays = _extract_arrays(graph, kind)
    slots: Dict[str, StoreArray] = {}
    offset = HEADER_SIZE
    for key in _SLOT_KEYS:
        if key not in arrays:
            continue
        array = np.ascontiguousarray(np.asarray(arrays[key]))
        expected = _SLOT_DTYPES[key]
        if array.dtype.name != expected:
            raise StoreFormatError(
                f"{key} must be {expected}, got {array.dtype.name}"
            )
        slots[key] = StoreArray(
            key=key, dtype=expected, offset=offset, length=len(array)
        )
        arrays[key] = array
        offset += _pad(array.nbytes)

    digest = graph_fingerprint(graph)["digest"]
    flags = FLAG_WEIGHTS if "weights" in slots else 0
    header = bytearray(HEADER_SIZE)
    _FIXED.pack_into(
        header,
        0,
        MAGIC,
        STORE_VERSION,
        flags,
        _KIND_CODES[kind],
        int(graph.num_vertices),
        slots["indices"].length,
        digest.encode("ascii"),
    )
    cursor = _FIXED.size
    for key in _SLOT_KEYS:
        entry = slots.get(key)
        if entry is None:
            _SLOT.pack_into(header, cursor, 0, 0, 0)
        else:
            _SLOT.pack_into(
                header,
                cursor,
                _DTYPE_CODES[entry.dtype],
                entry.offset,
                entry.length,
            )
        cursor += _SLOT.size

    present = [key for key in _SLOT_KEYS if key in slots]
    info = StoreInfo(
        path="",
        kind=kind,
        version=STORE_VERSION,
        flags=flags,
        num_vertices=int(graph.num_vertices),
        num_entries=slots["indices"].length,
        digest=digest,
        arrays=tuple(slots[key] for key in present),
    )
    return StoreImage(
        info=info,
        header=bytes(header),
        payloads=tuple(arrays[key] for key in present),
    )


def save_store(graph: Any, path: PathLike) -> StoreInfo:
    """Write ``graph`` as a ``.rcsr`` v1 container at ``path``.

    Encodes with :func:`encode_store`, then writes through a
    same-directory temporary file followed by an atomic rename, so a
    crashed save never leaves a half-written container behind.
    """
    image = encode_store(graph)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        for offset, chunk in image.chunks():
            handle.write(b"\x00" * (offset - handle.tell()))
            handle.write(chunk)
    os.replace(tmp, path)
    return replace(image.info, path=str(path))


def read_info(path: PathLike) -> StoreInfo:
    """Read and structurally validate the header of the file ``path``.

    Reads :data:`HEADER_SIZE` bytes — never the payload — and hands them
    to :func:`parse_header` together with the file size.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as handle:
            raw = handle.read(HEADER_SIZE)
    except OSError as exc:
        raise StoreFormatError(f"{path}: cannot read store: {exc}") from exc
    return parse_header(raw, size, str(path))


def parse_header(raw: bytes, size: int, source: str) -> StoreInfo:
    """Parse and structurally validate a container header.

    ``raw`` holds the container's first :data:`HEADER_SIZE` bytes and
    ``size`` its total length; ``source`` names the container in errors
    and becomes :attr:`StoreInfo.path`.  Checks magic, version,
    kind/dtype codes, slot alignment, that every slot lies inside the
    container, and that slot lengths agree with the header.
    """
    if len(raw) < HEADER_SIZE:
        raise StoreFormatError(
            f"{source}: truncated header ({len(raw)} < {HEADER_SIZE} bytes)"
        )
    magic, version, flags, kind_code, n, entries, digest_raw = (
        _FIXED.unpack_from(raw, 0)
    )
    if magic != MAGIC:
        raise StoreFormatError(
            f"{source}: not a .rcsr store (bad magic {magic!r})"
        )
    if version > STORE_VERSION:
        raise StoreFormatError(
            f"{source}: store version {version} is newer than this reader "
            f"(max {STORE_VERSION})"
        )
    if version < 1:
        raise StoreFormatError(f"{source}: invalid store version {version}")
    kind = _KIND_NAMES.get(kind_code)
    if kind is None:
        raise StoreFormatError(f"{source}: unknown kind code {kind_code}")
    if n < 0 or entries < 0:
        raise StoreFormatError(
            f"{source}: negative sizes in header (n={n}, entries={entries})"
        )
    try:
        digest = digest_raw.decode("ascii")
        int(digest, 16)
    except (UnicodeDecodeError, ValueError) as exc:
        raise StoreFormatError(
            f"{source}: corrupt fingerprint field {digest_raw!r}"
        ) from exc

    slots = []
    cursor = _FIXED.size
    for key in _SLOT_KEYS:
        dtype_code, offset, length = _SLOT.unpack_from(raw, cursor)
        cursor += _SLOT.size
        if dtype_code == 0:
            continue
        dtype = _DTYPE_NAMES.get(dtype_code)
        if dtype is None:
            raise StoreFormatError(
                f"{source}: slot {key}: unknown dtype code {dtype_code}"
            )
        if dtype != _SLOT_DTYPES[key]:
            raise StoreFormatError(
                f"{source}: slot {key}: dtype {dtype} does not match the "
                f"canonical {_SLOT_DTYPES[key]}"
            )
        entry = StoreArray(key=key, dtype=dtype, offset=offset, length=length)
        if offset < HEADER_SIZE or offset % ALIGN or length < 0:
            raise StoreFormatError(
                f"{source}: slot {key}: bad offset/length "
                f"({offset}, {length})"
            )
        if offset + entry.nbytes > size:
            raise StoreFormatError(
                f"{source}: slot {key}: payload extends past end of file "
                f"({offset} + {entry.nbytes} > {size})"
            )
        slots.append(entry)

    info = StoreInfo(
        path=source,
        kind=kind,
        version=version,
        flags=flags,
        num_vertices=n,
        num_entries=entries,
        digest=digest,
        arrays=tuple(slots),
    )
    _check_slot_shapes(info)
    return info


def _check_slot_shapes(info: StoreInfo) -> None:
    """Cross-check slot lengths against the header's n / num_entries."""
    present = {entry.key for entry in info.arrays}
    required = {
        "graph": {"indptr", "indices"},
        "weighted": {"indptr", "indices", "weights"},
        "directed": {"indptr", "indices", "rev_indptr", "rev_indices"},
    }[info.kind]
    if present != required:
        raise StoreFormatError(
            f"{info.path}: kind={info.kind} requires slots "
            f"{sorted(required)}, found {sorted(present)}"
        )
    for entry in info.arrays:
        if entry.key.endswith("indptr"):
            want = info.num_vertices + 1
        else:
            want = info.num_entries
        if entry.length != want:
            raise StoreFormatError(
                f"{info.path}: slot {entry.key} has length {entry.length}, "
                f"header implies {want}"
            )


def map_store_arrays(info: StoreInfo) -> Dict[str, np.ndarray]:
    """Read-only ``np.memmap`` views of every slot in ``info``.

    Each view maps its own aligned window of the file; the OS shares the
    backing pages between every process that opens the same store.  The
    mapping lives exactly as long as the returned arrays do.
    """
    views: Dict[str, np.ndarray] = {}
    for entry in info.arrays:
        views[entry.key] = np.memmap(
            info.path,
            dtype=np.dtype(entry.dtype),
            mode="r",
            offset=entry.offset,
            shape=(entry.length,),
        )
    return views


def _check_indptr(info: StoreInfo, key: str, indptr: np.ndarray) -> None:
    """Monotonicity + endpoint checks on a mapped row-pointer array."""
    if len(indptr) == 0 or indptr[0] != 0:
        raise StoreFormatError(f"{info.path}: {key} must start at 0")
    if indptr[-1] != info.num_entries:
        raise StoreFormatError(
            f"{info.path}: {key} ends at {int(indptr[-1])}, header "
            f"declares {info.num_entries} entries"
        )
    if len(indptr) > 1 and bool(np.any(np.diff(indptr) < 0)):
        raise StoreFormatError(
            f"{info.path}: {key} is not monotone non-decreasing"
        )


# reprolint R1: this module is on the CSR constructor allowlist — it is
# the one place that rebuilds frozen zero-copy graphs over foreign bytes
# (mapped store pages).
def graph_from_arrays(
    info: StoreInfo, views: Dict[str, np.ndarray]
) -> Any:
    """Assemble a graph over ``views`` without copying the CSR arrays.

    Bypasses the flavour constructors (the arrays were validated when
    the store was written; re-validating on every open would be
    ``O(m)``) and freezes the mapped views in place, so the result obeys
    the same CSR-immutability discipline as a built graph.  Derived
    ``degrees`` arrays are computed (``O(n)``) because v1 does not store
    them.  Row-pointer monotonicity is always checked — it is the one
    corruption that turns into out-of-bounds slicing inside the numpy
    kernels.  Vertex ids are range-checked where the C kernels first
    take the arrays (:class:`repro.graph.native.CSRView`), since those
    use them as raw offsets.
    """
    _check_indptr(info, "indptr", views["indptr"])
    if info.kind == "graph":
        graph = Graph.__new__(Graph)
        graph._indptr = sanitize.freeze(views["indptr"], "Graph.indptr")
        graph._indices = sanitize.freeze(views["indices"], "Graph.indices")
        graph._degrees = sanitize.freeze(
            np.diff(views["indptr"]), "Graph.degrees"
        )
        return graph
    if info.kind == "weighted":
        from repro.weighted.graph import WeightedGraph

        weighted = WeightedGraph.__new__(WeightedGraph)
        weighted._indptr = sanitize.freeze(
            views["indptr"], "WeightedGraph.indptr"
        )
        weighted._indices = sanitize.freeze(
            views["indices"], "WeightedGraph.indices"
        )
        weighted._weights = sanitize.freeze(
            views["weights"], "WeightedGraph.weights"
        )
        weighted._degrees = sanitize.freeze(
            np.diff(views["indptr"]), "WeightedGraph.degrees"
        )
        return weighted
    from repro.directed.graph import DirectedGraph

    _check_indptr(info, "rev_indptr", views["rev_indptr"])
    directed = DirectedGraph.__new__(DirectedGraph)
    directed._fwd_indptr = sanitize.freeze(
        views["indptr"], "DirectedGraph.fwd_indptr"
    )
    directed._fwd_indices = sanitize.freeze(
        views["indices"], "DirectedGraph.fwd_indices"
    )
    directed._rev_indptr = sanitize.freeze(
        views["rev_indptr"], "DirectedGraph.rev_indptr"
    )
    directed._rev_indices = sanitize.freeze(
        views["rev_indices"], "DirectedGraph.rev_indices"
    )
    return directed


def open_store(path: PathLike, verify: bool = False) -> Any:
    """Open a ``.rcsr`` container as a read-only memmap-backed graph.

    The CSR arrays alias the mapped file — no copy is made (asserted by
    the test suite via ``np.shares_memory``).  ``verify=True``
    additionally recomputes the content digest over the mapped arrays
    and compares it with the header fingerprint (``O(m)``; the default
    open trusts the fingerprint written at save time).

    The opened graph is registered with :func:`source_of`, so
    downstream layers (the CLI's run-record header) can rediscover the
    backing file.
    """
    info = read_info(path)
    views = map_store_arrays(info)
    graph = graph_from_arrays(info, views)
    if verify:
        actual = graph_fingerprint(graph)["digest"]
        if actual != info.digest:
            raise StoreFormatError(
                f"{info.path}: content fingerprint mismatch "
                f"(header {info.digest}, payload {actual}); the store "
                "file is corrupt or was tampered with"
            )
    register_source(graph, info)
    return graph


def verify_store(path: PathLike) -> StoreInfo:
    """Full integrity check: header validation plus digest recompute.

    Raises :class:`~repro.errors.StoreFormatError` on any mismatch;
    returns the validated :class:`StoreInfo` on success.
    """
    info = read_info(path)
    views = map_store_arrays(info)
    graph = graph_from_arrays(info, views)
    actual = graph_fingerprint(graph)["digest"]
    if actual != info.digest:
        raise StoreFormatError(
            f"{info.path}: content fingerprint mismatch "
            f"(header {info.digest}, payload {actual})"
        )
    return info


# ---------------------------------------------------------------------------
# Store-source registry
# ---------------------------------------------------------------------------
#: Weak per-graph map back to the container a graph was opened from;
#: mutate only through register_source / source_of (reprolint R10).
_SOURCES: "weakref.WeakKeyDictionary[Any, StoreInfo]" = (
    weakref.WeakKeyDictionary()
)
_SOURCES_LOCK = threading.Lock()


def register_source(graph: Any, info: StoreInfo) -> None:
    """Remember that ``graph`` is backed by the store file in ``info``.

    Graphs that cannot be weak-referenced are silently skipped — the
    registry is an optimisation hint, not a correctness requirement.
    """
    try:
        with _SOURCES_LOCK:
            _SOURCES[graph] = info
    except TypeError:  # pragma: no cover - non-weakrefable graph type
        pass


def source_of(graph: Any) -> Optional[StoreInfo]:
    """The :class:`StoreInfo` backing ``graph``, or ``None``.

    ``None`` means the graph was built in memory (or its store file
    association was never registered); callers fall back to copying
    paths.
    """
    with _SOURCES_LOCK:
        return _SOURCES.get(graph)
