"""Native C traversal kernels: built on first use, numpy fallback kept.

:mod:`repro.graph.engine` and :mod:`repro.graph.msengine` each run
their level loop either in numpy or in ``_kernels.c``, a small C port
of the same loop.  This module owns the C side:

* **Build.**  The first traversal compiles ``_kernels.c`` with
  ``gcc -O2 -shared -fPIC`` plus two memory caps (see :data:`CFLAGS`);
  the compiler is found through :func:`shutil.which`.  The library is
  cached as ``~/.cache/repro/native/<key>.so``, where ``key`` is the
  sha256 of the C source, the compiler's version string and the flags,
  so an edited kernel or a new compiler never loads a stale build.  The
  path deliberately ignores ``$REPRO_STORE_DIR``: graph stores come and
  go per benchmark set-up, the compiled kernel does not.
* **Races.**  Each process compiles into a private temporary file in
  the cache directory and publishes it with :func:`os.replace`, so
  processes that race on first use all load a complete library,
  whichever rename won.
* **Load.**  :mod:`ctypes` loads the library; its foreign calls release
  the GIL.  A sha256 of the library's bytes is appended to the cached
  file (the dynamic loader ignores trailing bytes) and checked before
  loading, because loading a truncated shared object can kill the
  process instead of raising.  An ABI number exported by the C file
  guards against loading something that merely has the right name.
* **Fallback.**  No compiler, a failed compile, an unwritable cache
  directory or a cached library that does not load leave
  :func:`kernels` returning ``None``.  The engines then run their numpy
  level loops, and :func:`kernel_info` says why.  A cached library that
  fails to load is deleted, so the next process rebuilds it.  Nothing
  here raises: a missing toolchain costs speed, never answers.

Which kernel runs is decided only by whether the build succeeds; there
is no option or environment variable to pick one.  Both kernels make
the same per-level decisions and keep the same accounting, so
distances, run stats, counters and trace events are identical either
way (``tests/graph/test_native.py`` pins this).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import ContextManager, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import GraphConstructionError

__all__ = [
    "CFLAGS",
    "CSRView",
    "KernelInfo",
    "Kernels",
    "build",
    "cache_dir",
    "kernel_info",
    "kernels",
    "pinned",
    "unloaded",
]

#: The C source, shipped next to this module as package data.
SOURCE = Path(__file__).with_name("_kernels.c")

#: Compiler flags; part of the cache key.  The two ``--param``s cap
#: gcc's garbage-collected heap: the same library comes out, but the
#: compiler peaks near 36 MB instead of 41 MB, so a first-use build
#: inside a short CLI process does not raise that process's peak
#: memory (its children count toward it).
CFLAGS: Tuple[str, ...] = (
    "-O2",
    "-shared",
    "-fPIC",
    "--param",
    "ggc-min-expand=0",
    "--param",
    "ggc-min-heapsize=4096",
)

#: Must equal ``KERNEL_ABI`` in ``_kernels.c``.
ABI = 2

#: Mode codes shared with the C file.
MODE_CODES = {"hybrid": 0, "top-down": 1, "bottom-up": 2}

#: Direction names by the per-level code the kernels write.
DIRECTION_NAMES = ("td", "bu")

#: Upper bound on one compiler invocation, so a wedged toolchain can
#: delay the first traversal but never hang it.
_COMPILE_TIMEOUT_S = 120.0

#: Length of the sha256 trailer appended to every cached library.
_DIGEST_BYTES = 32

_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_INT = ctypes.c_int
_DBL = ctypes.c_double


@dataclass(frozen=True)
class KernelInfo:
    """Which kernel the engines run, and why.

    ``kind`` is ``"native"`` (``detail`` is the library's cache key) or
    ``"numpy"`` (``detail`` is the reason the native build is not in
    use).
    """

    kind: str
    detail: str

    def label(self) -> str:
        """One-line form for run-record headers and logs."""
        return f"{self.kind}: {self.detail}"


class Kernels:
    """The loaded library's entry points with their ctypes signatures."""

    __slots__ = ("library", "bfs", "msbfs", "_bound_progress")

    def __init__(self, library: ctypes.CDLL) -> None:
        self.library = library
        self.bfs = library.repro_bfs
        self.bfs.restype = None
        self.bfs.argtypes = (
            [_I64, _P, _P, _I64, _I64, _INT, _DBL, _DBL] + [_P] * 6
        )
        self.msbfs = library.repro_msbfs
        self.msbfs.restype = _INT
        self.msbfs.argtypes = (
            [_I64, _I64, _P, _P, _P, _I64, _I64, _INT, _DBL, _DBL]
            + [_P] * 7
            + [_I64]
            + [_P] * 6
        )
        self._bound_progress = library.repro_bound_progress
        self._bound_progress.restype = _I64
        self._bound_progress.argtypes = [_I64, _P, _P, _I64, _I64, _P]

    def bound_progress(
        self, lower: np.ndarray, upper: np.ndarray, tolerance: int, cap: int
    ) -> Tuple[int, int]:
        """``(resolved count, capped gap mass)`` of int32 bound arrays.

        Both arrays are made contiguous ``int32`` here (a no-op for
        :class:`~repro.core.bounds.BoundState`'s own), so the C loop
        never reads past them.

        :dtype lower: int32
        :dtype upper: int32
        """
        lower = np.ascontiguousarray(lower, dtype=np.int32)
        upper = np.ascontiguousarray(upper, dtype=np.int32)
        if len(lower) != len(upper):
            raise ValueError("lower and upper bounds differ in length")
        mass = ctypes.c_int64()
        resolved = self._bound_progress(
            len(lower),
            lower.ctypes.data,
            upper.ctypes.data,
            tolerance,
            cap,
            ctypes.byref(mass),
        )
        return resolved, mass.value


class CSRView:
    """A graph's CSR arrays in the kernels' dtypes, with their addresses.

    This is the C kernels' trust boundary.  They use every row pointer
    and vertex id as a raw array offset, and a store opened without
    ``verify`` has had only its row pointers checked, so a damaged or
    crafted ``indices`` payload would become an out-of-bounds write.
    Construction therefore checks, in ``O(n + m)`` once per engine,
    that the row pointers lie in ``[0, m]`` and the vertex ids in
    ``[0, n)``, and raises :class:`~repro.errors.GraphConstructionError`
    otherwise.

    Holding the arrays keeps the addresses valid.  A :class:`Graph`
    already stores ``int64``/``int32`` contiguous arrays, so nothing is
    copied.

    :dtype row_ptr: int64
    :dtype col_idx: int32
    """

    __slots__ = ("row_ptr", "col_idx", "row_ptr_addr", "col_idx_addr")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.row_ptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.col_idx = np.ascontiguousarray(indices, dtype=np.int32)
        m = len(self.col_idx)
        if len(self.row_ptr) != n + 1 or not (
            0 <= int(self.row_ptr.min()) and int(self.row_ptr.max()) <= m
        ):
            raise GraphConstructionError(
                f"corrupt CSR: row pointers do not index {m} arcs "
                f"of a {n}-vertex graph"
            )
        if m and not (
            0 <= int(self.col_idx.min()) and int(self.col_idx.max()) < n
        ):
            raise GraphConstructionError(
                f"corrupt CSR: a vertex id lies outside [0, {n}) "
                f"(ids span {int(self.col_idx.min())}.."
                f"{int(self.col_idx.max())})"
            )
        self.row_ptr_addr: int = self.row_ptr.ctypes.data
        self.col_idx_addr: int = self.col_idx.ctypes.data


def cache_dir() -> Path:
    """Where compiled kernels live: ``~/.cache/repro/native``."""
    return Path.home() / ".cache" / "repro" / "native"


def _fallback(reason: str) -> Tuple[None, KernelInfo]:
    return None, KernelInfo("numpy", reason)


def _last_line(text: str) -> str:
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return lines[-1].strip() if lines else "no diagnostics"


def build(
    cache: Path,
    compiler: Optional[str],
    source: Path = SOURCE,
) -> Tuple[Optional[Kernels], KernelInfo]:
    """Compile (unless cached) and load the kernels; never raises.

    Returns ``(kernels, info)``; ``kernels`` is ``None`` on any failure
    and ``info.detail`` then names the reason.  :func:`kernels` calls
    this once per process with the default cache and compiler; tests
    call it directly to exercise each failure mode.
    """
    import subprocess  # only the first traversal of a process needs it

    if compiler is None:
        return _fallback("no C compiler on PATH")
    try:
        code = source.read_bytes()
    except OSError as exc:
        return _fallback(f"kernel source unreadable: {exc}")
    try:
        probe = subprocess.run(
            [compiler, "-dumpfullversion", "-dumpversion"],
            capture_output=True,
            text=True,
            timeout=_COMPILE_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        return _fallback(f"compiler {compiler} unusable: {exc}")
    if probe.returncode != 0:
        return _fallback(
            f"compiler {compiler} unusable: {_last_line(probe.stderr)}"
        )
    digest = hashlib.sha256(code)
    digest.update(probe.stdout.strip().encode())
    digest.update(" ".join(CFLAGS).encode())
    key = digest.hexdigest()
    path = cache / f"{key}.so"
    try:
        cached = path.exists()
    except OSError:  # an unreadable cache directory: try to build
        cached = False
    if not cached:
        reason = _compile(cache, compiler, source, path)
        if reason is not None:
            return _fallback(reason)
    try:
        if not _intact(path):
            raise OSError("digest mismatch (truncated or corrupt)")
        library = ctypes.CDLL(str(path))
        if library.repro_kernels_abi() != ABI:
            raise OSError("ABI mismatch")
        loaded = Kernels(library)
    except (OSError, AttributeError) as exc:
        # Remove it so the next process rebuilds instead of failing
        # again; a concurrent rebuild may already have replaced it.
        try:
            path.unlink()
        except OSError:
            pass
        return _fallback(f"cached library {path.name} failed to load: {exc}")
    return loaded, KernelInfo("native", key[:16])


def _intact(path: Path) -> bool:
    """Whether ``path`` ends with the sha256 of the bytes before it."""
    data = path.read_bytes()
    size = len(data) - _DIGEST_BYTES
    return size > 0 and hashlib.sha256(data[:size]).digest() == data[size:]


def _compile(
    cache: Path, compiler: str, source: Path, path: Path
) -> Optional[str]:
    """Build ``source`` into ``path`` atomically.

    Returns ``None`` on success, else the reason the build failed.
    """
    import subprocess
    import tempfile

    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=f".{path.stem[:16]}-", suffix=".so", dir=cache
        )
        os.close(fd)
    except OSError as exc:
        return f"cache directory {cache} not writable: {exc}"
    try:
        done = subprocess.run(
            [compiler, *CFLAGS, "-o", tmp, str(source)],
            capture_output=True,
            text=True,
            timeout=_COMPILE_TIMEOUT_S,
        )
        if done.returncode != 0:
            return f"compile failed: {_last_line(done.stderr)}"
        with open(tmp, "rb+") as handle:
            handle.write(hashlib.sha256(handle.read()).digest())
        os.replace(tmp, path)
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        return f"compile failed: {exc}"
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


#: ``(kernels, info)`` once the first traversal has tried the build;
#: :func:`pinned` and :func:`unloaded` swap it for one block.
_STATE: List[Tuple[Optional[Kernels], KernelInfo]] = []
_STATE_LOCK = threading.Lock()


def _state() -> Tuple[Optional[Kernels], KernelInfo]:
    with _STATE_LOCK:
        if not _STATE:
            try:
                cache = cache_dir()
            except (KeyError, RuntimeError) as exc:  # no home directory
                _STATE.append(_fallback(f"no cache directory: {exc}"))
            else:
                _STATE.append(build(cache, shutil.which("gcc")))
        return _STATE[0]


def kernels() -> Optional[Kernels]:
    """The native kernels, or ``None`` when the numpy loops must run.

    The first call of a process builds or loads the library (see the
    module docstring); later calls are one list read.
    """
    if _STATE:
        return _STATE[0][0]
    return _state()[0]


def kernel_info() -> KernelInfo:
    """Which kernel this process runs, with the library key or reason."""
    if _STATE:
        return _STATE[0][1]
    return _state()[1]


@contextmanager
def _swapped(
    state: List[Tuple[Optional[Kernels], KernelInfo]]
) -> Iterator[None]:
    with _STATE_LOCK:
        saved = list(_STATE)
        _STATE[:] = state
    try:
        yield
    finally:
        with _STATE_LOCK:
            _STATE[:] = saved


def pinned(
    kernels: Optional[Kernels], info: KernelInfo
) -> ContextManager[None]:
    """Run the block on the given kernel, then restore the loaded one.

    ``pinned(None, KernelInfo("numpy", why))`` runs the numpy level
    loops; ``pinned(*build(cache, compiler))`` a particular library.
    The test suite and the kernel benchmarks use it to check or time
    both kernels in one process.
    """
    return _swapped([(kernels, info)])


def unloaded() -> ContextManager[None]:
    """Forget the loaded kernel inside the block, so the next
    :func:`kernels` call tries the first-use build again."""
    return _swapped([])
