"""Native C kernels: bit-identity with numpy, a loader that never fails.

The C level loops in ``repro/graph/_kernels.c`` must make exactly the
numpy loops' decisions, so every observable of a run — distances,
``last_ecc``, each run-stats field, the traversal counter — is compared
field by field between the two kernels.  The loader half checks that
each way the build can go wrong ends in the numpy fallback with a
readable reason, and that racing first uses all load a working library.
"""

from __future__ import annotations

import shutil
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import graph_corpus, random_graph
from repro.counters import TraversalCounter
from repro.directed.graph import DirectedGraph
from repro.directed.traversal import backward_bfs, forward_bfs
from repro.errors import GraphConstructionError
from repro.graph import native
from repro.graph.engine import BFSEngine
from repro.graph.generators import grid_graph, paper_example_graph, star_graph
from repro.graph.msengine import MSBFSEngine
from repro.store.format import open_store, save_store

MODES = ("hybrid", "top-down", "bottom-up")
LIMITS = (None, 0, 1, 3)
GCC = shutil.which("gcc")
NUMPY = (None, native.KernelInfo("numpy", "pinned by the test"))

needs_native = pytest.mark.skipif(
    native.kernels() is None,
    reason=f"native kernel unavailable: {native.kernel_info().detail}",
)
needs_gcc = pytest.mark.skipif(GCC is None, reason="no gcc on PATH")

CORPUS = graph_corpus() + [grid_graph(12, 17), star_graph(300)]


def _totals(counter):
    return (
        counter.bfs_runs,
        counter.edges_scanned,
        counter.edges_inspected,
        counter.vertices_visited,
    )


def _under(state, call):
    with native.pinned(*state):
        return call()


def _loaded():
    return native.kernels(), native.kernel_info()


def _single(engine, source, limit, mode):
    counter = TraversalCounter()
    dist = engine.run(source, limit=limit, counter=counter, mode=mode).copy()
    return dist, engine.last_ecc, engine.last_stats, _totals(counter)


def _sweep(engine, sources, limit, mode):
    counter = TraversalCounter()
    rows = engine.run_batch(sources, limit=limit, counter=counter, mode=mode)
    stats = engine.last_stats
    ecc_counter = TraversalCounter()
    ecc = engine.ecc_batch(sources, counter=ecc_counter, mode=mode)
    return rows, stats, _totals(counter), ecc, engine.last_stats, _totals(
        ecc_counter
    )


def _assert_same_single(graph, sources, modes, limits):
    loaded = _loaded()
    engine = BFSEngine(graph)
    for mode in modes:
        for limit in limits:
            for source in sources:
                want = _under(NUMPY,
                              lambda: _single(engine, source, limit, mode))
                got = _under(loaded,
                             lambda: _single(engine, source, limit, mode))
                np.testing.assert_array_equal(got[0], want[0])
                assert got[1:] == want[1:], (mode, limit, source)


def _assert_same_sweep(graph, batches, modes, limits):
    loaded = _loaded()
    engine = MSBFSEngine(graph)
    for mode in modes:
        for limit in limits:
            for sources in batches:
                want = _under(NUMPY,
                              lambda: _sweep(engine, sources, limit, mode))
                got = _under(loaded,
                             lambda: _sweep(engine, sources, limit, mode))
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[3], want[3])
                assert got[3].dtype == want[3].dtype
                assert (got[1], got[2], got[4], got[5]) == (
                    want[1], want[2], want[4], want[5]
                ), (mode, limit, len(sources))


@needs_native
class TestBitIdentity:
    @pytest.mark.parametrize("mode", MODES)
    def test_single_source_corpus(self, mode):
        for graph in CORPUS:
            n = graph.num_vertices
            sources = sorted({0, n // 2, n - 1})
            _assert_same_single(graph, sources, (mode,), LIMITS)

    @pytest.mark.parametrize("mode", MODES)
    def test_lane_sweep_corpus(self, mode):
        rng = np.random.default_rng(5)
        for graph in CORPUS:
            n = graph.num_vertices
            batches = [
                rng.integers(0, n, size=size).astype(np.int64)
                for size in (1, 9, 64, 70, 150, 256)
            ]
            _assert_same_sweep(graph, batches, (mode,), LIMITS)

    @pytest.mark.parametrize("n, arcs", [(1, 0), (40, 30), (2_000, 8_000)])
    def test_directed_bfs(self, n, arcs):
        # Random arcs leave vertices unreachable in both directions.
        rng = np.random.default_rng(n)
        graph = DirectedGraph.from_arcs(
            rng.integers(0, n, size=(arcs, 2)).tolist(), num_vertices=n
        )
        loaded = _loaded()
        for bfs in (forward_bfs, backward_bfs):
            for source in rng.integers(0, n, size=min(n, 55)).tolist():

                def run():
                    counter = TraversalCounter()
                    dist = bfs(graph, source, counter=counter)
                    return dist, _totals(counter), counter.history

                want = _under(NUMPY, run)
                got = _under(loaded, run)
                np.testing.assert_array_equal(got[0], want[0])
                assert got[0].dtype == want[0].dtype
                assert got[1:] == want[1:], (bfs.__name__, source)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 120),
        extra=st.integers(0, 300),
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    def test_random_graphs(self, n, extra, seed, data):
        graph = random_graph(n, extra, seed)
        mode = data.draw(st.sampled_from(MODES))
        limit = data.draw(st.sampled_from(LIMITS))
        source = data.draw(st.integers(0, n - 1))
        sources = np.asarray(
            data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=256)),
            dtype=np.int64,
        )
        _assert_same_single(graph, [source], (mode,), (limit,))
        _assert_same_sweep(graph, [sources], (mode,), (limit,))


@needs_native
class TestCorruptAdjacency:
    """A damaged CSR raises before any C loop uses it as an offset.

    ``open_store`` checks only the row pointers unless ``verify=True``,
    so an out-of-range id in a store's ``indices`` payload reaches the
    engines; the numpy loops raised on it, and the C loops must not
    write out of bounds instead.
    """

    @staticmethod
    def _damaged_store(tmp_path, bad_id):
        info = save_store(paper_example_graph(), tmp_path / "g.rcsr")
        with open(info.path, "r+b") as handle:
            handle.seek(info.array("indices").offset + 4 * 5)
            handle.write(struct.pack("<i", bad_id))
        return info.path

    @pytest.mark.parametrize("bad_id", [-1, 13, 2**31 - 1])
    def test_engines_raise(self, tmp_path, bad_id):
        graph = open_store(self._damaged_store(tmp_path, bad_id))
        with pytest.raises(GraphConstructionError, match="outside"):
            BFSEngine(graph).run(0)
        sources = np.arange(graph.num_vertices, dtype=np.int64)
        with pytest.raises(GraphConstructionError, match="outside"):
            MSBFSEngine(graph).ecc_batch(sources)

    def test_cli_reports_an_error(self, tmp_path):
        path = self._damaged_store(tmp_path, 2**31 - 1)
        src = str(Path(native.__file__).resolve().parents[2])
        done = subprocess.run(
            [sys.executable, "-m", "repro", "ecc", str(path)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin",
                 "HOME": str(Path.home())},
            timeout=120,
        )
        assert done.returncode > 0, done.stderr  # an exit code, no signal
        assert "corrupt CSR" in done.stderr

    def test_row_pointers_past_the_arcs_raise(self):
        graph = paper_example_graph()
        indptr = graph.indptr.copy()
        indptr[-1] += 1
        with pytest.raises(GraphConstructionError, match="row pointers"):
            native.CSRView(graph.num_vertices, indptr, graph.indices)


class TestLoaderFallback:
    def test_no_compiler(self, tmp_path):
        kernels, info = native.build(tmp_path, None)
        assert kernels is None
        assert info == native.KernelInfo("numpy", "no C compiler on PATH")
        assert not tmp_path.joinpath("native").exists()

    def test_no_compiler_on_path_at_first_use(self, monkeypatch):
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        with native.unloaded():
            assert native.kernels() is None
            assert native.kernel_info().kind == "numpy"
            assert "no C compiler" in native.kernel_info().label()
            # The engines fall back rather than fail.
            engine = BFSEngine(star_graph(5))
            assert engine.run(0).tolist() == [0, 1, 1, 1, 1]

    @needs_gcc
    def test_compile_error(self, tmp_path):
        broken = tmp_path / "broken.c"
        broken.write_text("int repro_kernels_abi(void) { return }\n")
        kernels, info = native.build(tmp_path / "cache", GCC, broken)
        assert kernels is None
        assert info.kind == "numpy"
        assert info.detail.startswith("compile failed:")
        # No half-written library or temporary file is left behind.
        assert list((tmp_path / "cache").iterdir()) == []

    @needs_gcc
    def test_unwritable_cache_directory(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        kernels, info = native.build(blocker / "native", GCC)
        assert kernels is None
        assert info.kind == "numpy"
        assert "not writable" in info.detail

    @needs_gcc
    @pytest.mark.parametrize("damage", ["empty", "garbage", "truncated"])
    def test_corrupt_cached_library(self, tmp_path, damage):
        built, info = native.build(tmp_path / "good", GCC)
        assert built is not None and info.kind == "native"
        (good,) = list((tmp_path / "good").iterdir())
        content = {
            "empty": b"",
            "garbage": b"\x7fELF" + b"\0" * 60,
            "truncated": good.read_bytes()[: good.stat().st_size // 2],
        }[damage]
        name = good.name
        cache = tmp_path / "bad"
        cache.mkdir()
        (cache / name).write_bytes(content)
        kernels, info = native.build(cache, GCC)
        assert kernels is None
        assert info.kind == "numpy"
        assert "failed to load" in info.detail
        # The corrupt file is removed, so the next build starts clean.
        assert not (cache / name).exists()
        again, info = native.build(cache, GCC)
        assert again is not None and info.kind == "native"

    @needs_gcc
    def test_cache_key_tracks_the_source(self, tmp_path):
        edited = tmp_path / "edited.c"
        edited.write_bytes(native.SOURCE.read_bytes() + b"\n/* edit */\n")
        _k1, first = native.build(tmp_path / "cache", GCC)
        _k2, second = native.build(tmp_path / "cache", GCC, edited)
        assert first.kind == second.kind == "native"
        assert first.detail != second.detail
        assert len(list((tmp_path / "cache").iterdir())) == 2


@needs_gcc
def test_racing_first_use_loads_one_valid_library(tmp_path):
    """Two processes building into one empty cache both end up native."""
    script = textwrap.dedent(
        f"""
        import sys
        from pathlib import Path
        from repro.graph import native
        from repro.graph.engine import BFSEngine
        from repro.graph.generators import path_graph

        kernels, info = native.build(Path(sys.argv[1]), {GCC!r})
        with native.pinned(kernels, info):
            engine = BFSEngine(path_graph(6))
            print(info.kind, engine.run(0).tolist())
        """
    )
    src = str(Path(native.__file__).resolve().parents[2])
    env = {"PYTHONPATH": src, "PATH": "/usr/bin:/bin", "HOME": str(tmp_path)}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path / "cache")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for _ in range(2)
    ]
    outputs = [p.communicate(timeout=120) for p in procs]
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
        assert out.strip() == "native [0, 1, 2, 3, 4, 5]"
    libraries = [p for p in (tmp_path / "cache").iterdir()]
    assert len(libraries) == 1 and libraries[0].suffix == ".so"


def test_no_home_directory_falls_back(monkeypatch):
    def no_home():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.setattr(native.Path, "home", staticmethod(no_home))
    with native.unloaded():
        assert native.kernels() is None
        assert native.kernel_info().detail.startswith("no cache directory")
