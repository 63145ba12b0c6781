"""The benchmark's three workloads and their outside-in layer timing.

Each workload materialises its Table-3 stand-ins into a fresh ``.rcsr``
store (set-up), then runs passes: one operation per graph, graphs in a
seed-permuted order.  Only the program's public functions are called,
and every layer is timed from here, around the calls into it.  See
README.md for why each workload exists and which layers it bypasses.
"""

from __future__ import annotations

import contextlib
import io
import multiprocessing
import os
import resource
import shutil
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from collections import defaultdict
from typing import Any, DefaultDict, Dict, List, Optional, Tuple

import numpy as np

from checker import Tally
from repro.core.ifecc import IFECC
from repro.core.oracles import BFSOracle
from repro.core.solver import EccentricitySolver
from repro.counters import TraversalCounter
from repro.datasets.collection import GraphCollection
from repro.datasets.registry import dataset_names
from repro.obs.trace import MemorySink, tracing
from repro.parallel.pool import pool_for
from repro.store.format import open_store

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Worker processes for set-up and for the naive batch (``nproc`` = 2).
WORKERS = 2
LANES_PER_WORD = 64

#: Per-layer accumulators; a layer never entered reads 0.
Layers = DefaultDict[str, float]


def materialize_one(root: str, name: str) -> None:
    """Build one stand-in into the store at ``root`` (a set-up worker)."""
    GraphCollection(root).materialize(name)


class CommandFailed(RuntimeError):
    """A CLI command exited with a non-zero code."""


def cold_command(argv: List[str], env: Dict[str, str], log: Path) -> int:
    """Run ``argv`` to completion and return the child's peak RSS in KiB.

    Raises :class:`CommandFailed` on a non-zero exit, quoting the tail
    of the command's stderr (kept in ``log``).
    """
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=err
        )
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        raise CommandFailed(
            f"exit code {proc.returncode}: {' | '.join(tail)}"
        )
    return int(usage.ru_maxrss)


class TimedOracle:
    """Delegates to a :class:`BFSOracle`, timing every call into it.

    Handed to :class:`EccentricitySolver` in place of the oracle, so the
    solver's own time (bound algebra, FFO, territories) is the solve's
    wall time minus the time spent inside these calls.
    """

    def __init__(self, inner: BFSOracle) -> None:
        self._inner = inner
        self.select_s = 0.0
        self.probe_s = 0.0
        self.sources: List[int] = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def select_references(self, strategy: str, count: int, seed: int) -> Any:
        start = time.perf_counter()
        refs = self._inner.select_references(strategy, count, seed)
        self.select_s += time.perf_counter() - start
        return refs

    def source_probe(self, source: int, counter: Any = None) -> Any:
        start = time.perf_counter()
        out = self._inner.source_probe(source, counter=counter)
        self.probe_s += time.perf_counter() - start
        self.sources.append(int(source))
        return out

    def sweep_probe(self, source: int, counter: Any = None) -> Any:
        start = time.perf_counter()
        out = self._inner.sweep_probe(source, counter=counter)
        self.probe_s += time.perf_counter() - start
        self.sources.append(int(source))
        return out


def traced_solve(graph: Any, layers: Layers, probes: List[int]) -> np.ndarray:
    """IFECC r = 1 through a :class:`TimedOracle`; adds to ``layers``.

    ``probes`` receives the probe sources, in order, for the scipy anchor.
    """
    start = time.perf_counter()
    oracle = TimedOracle(BFSOracle(graph))
    counter = TraversalCounter()
    solver = EccentricitySolver(oracle, num_references=1, counter=counter)
    useful = 0
    resolved = 0
    for snap in solver.steps():
        useful += snap.resolved > resolved
        resolved = snap.resolved
    ecc = solver.bounds.eccentricities()
    solve_s = time.perf_counter() - start
    layers["reference.select_s"] += oracle.select_s
    layers["engine.probe_s"] += oracle.probe_s
    layers["solver.self_s"] += solve_s - oracle.select_s - oracle.probe_s
    layers["solver.probes"] += len(oracle.sources)
    layers["solver.useful_probes"] += useful
    layers["engine.edges_inspected"] += counter.edges_inspected
    layers["engine.vertices_visited"] += counter.vertices_visited
    probes.extend(oracle.sources)
    return ecc


def harvest_events(events: List[Dict[str, Any]], layers: Layers) -> None:
    """Fold the program's own ``msbfs.run`` and ``parallel.batch`` events."""
    for event in events:
        if event["name"] == "msbfs.run":
            live = event["live_lanes"]
            layers["msengine.sweeps"] += 1
            layers["msengine.words_touched"] += event["words_touched"]
            layers["msengine.live_lanes"] += sum(live)
            layers["msengine.lane_levels"] += (
                LANES_PER_WORD * event["lane_words"] * len(live)
            )
        elif event["name"] == "parallel.batch":
            busy = list(event["worker_seconds"].values())
            layers["pool.batch_s"] += event["dur"]
            layers["pool.worker_busy_s"] += sum(busy)
            layers["pool.busiest_worker_s"] += max(busy)


class SetUp:
    """One fresh store with the workload's graphs opened (and pools up)."""

    def __init__(self, root: Path, names: List[str], pools: bool) -> None:
        start = time.perf_counter()
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(WORKERS, mp_context=ctx) as executor:
            list(executor.map(materialize_one, [str(root)] * len(names),
                              names))
        self.materialize_s = time.perf_counter() - start
        collection = GraphCollection(root)
        self.graphs = {n: open_store(collection.path_for(n)) for n in names}
        mark = time.perf_counter()
        self.pools = (
            {n: pool_for(g, workers=WORKERS) for n, g in self.graphs.items()}
            if pools
            else {}
        )
        self.pool_start_s = time.perf_counter() - mark
        self.wall_s = time.perf_counter() - start
        self.root = root

    def close(self) -> None:
        for pool in self.pools.values():
            pool.close()
        self.pools = {}
        self.graphs = {}
        shutil.rmtree(self.root, ignore_errors=True)


class Workload:
    """Set-up, untraced passes and traced passes over one graph group."""

    group = ""
    uses_pools = False

    def __init__(self, work: Path, seed: int, tally: Tally) -> None:
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.tally = tally
        self.names = dataset_names(self.group)
        self.setup: Optional[SetUp] = None
        self._setups = 0
        self._plain_first = False
        #: Probe sources of the latest traced pass, for the scipy anchor.
        self.probes: Dict[str, List[int]] = {}

    # -- set-up ---------------------------------------------------------
    def set_up(self) -> SetUp:
        if self.setup is not None:
            self.setup.close()
        self._setups += 1
        root = self.work / f"store-{self._setups}"
        self.setup = SetUp(root, self.names, self.uses_pools)
        # store://NAME resolves here, in-process and in CLI children.
        os.environ["REPRO_STORE_DIR"] = str(root.resolve())
        return self.setup

    def close(self) -> None:
        if self.setup is not None:
            self.setup.close()
            self.setup = None

    # -- passes ---------------------------------------------------------
    def order(self) -> List[str]:
        """This pass's graph order, drawn from the seeded generator."""
        return [self.names[i] for i in self.rng.permutation(len(self.names))]

    def graph(self, name: str) -> Any:
        assert self.setup is not None
        return self.setup.graphs[name]

    def op(self, name: str) -> Tuple[float, bool]:
        """One untraced operation on graph ``name``; ``(seconds, ok)``."""
        raise NotImplementedError

    def _traced(self, name: str, layers: Layers) -> Tuple[float, bool]:
        """The operation with tracing on, adding to ``layers``."""
        raise NotImplementedError

    def _paired(self, name: str, layers: Layers) -> Tuple[float, float, bool]:
        """Plain and traced operation, in alternating order.

        Their totals give ``obs.trace_overhead``.  Returns
        ``(plain seconds, traced seconds, both ok)``.
        """
        self._plain_first = not self._plain_first
        if self._plain_first:
            plain, plain_ok = self.op(name)
        traced, traced_ok = self._traced(name, layers)
        if not self._plain_first:
            plain, plain_ok = self.op(name)
        layers["obs.plain_s"] += plain
        layers["obs.traced_s"] += traced
        return plain, traced, plain_ok and traced_ok

    def traced_op(self, name: str, layers: Layers) -> Tuple[float, bool]:
        """One traced operation on graph ``name``, attributed to ``layers``.

        Returns the wall seconds the pass layers account for, and
        whether every ED checked out.
        """
        _plain, traced, ok = self._paired(name, layers)
        return traced, ok

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def anchor(self, layers: Layers) -> None:
        """scipy's BFS from the latest traced pass's probe sources."""
        try:
            from scipy.sparse import csr_matrix
            from scipy.sparse.csgraph import breadth_first_order
        except ImportError:
            return
        for name, sources in self.probes.items():
            graph = self.graph(name)
            n = graph.num_vertices
            matrix = csr_matrix(
                (np.ones(len(graph.indices), dtype=np.int8),
                 np.asarray(graph.indices), np.asarray(graph.indptr)),
                shape=(n, n),
            )
            start = time.perf_counter()
            for source in sources:
                breadth_first_order(matrix, source, directed=False,
                                    return_predecessors=False)
            layers["anchor.scipy_bfs_s"] += time.perf_counter() - start


class IfeccLarge(Workload):
    """In-process ``IFECC(graph).run()`` over the large stand-ins."""

    group = "large"

    def op(self, name: str) -> Tuple[float, bool]:
        graph = self.graph(name)
        return self.tally.attempt(
            name, lambda: IFECC(graph).run().eccentricities
        )

    def _traced(self, name: str, layers: Layers) -> Tuple[float, bool]:
        graph = self.graph(name)
        probes: List[int] = []
        sink = MemorySink()

        def solve() -> np.ndarray:
            with tracing(sink):
                return traced_solve(graph, layers, probes)

        seconds, ok = self.tally.attempt(name, solve)
        harvest_events(sink.events, layers)
        self.probes[name] = probes
        return seconds, ok


class NaiveBatch(Workload):
    """All-source eccentricities through the process-pool batch seam.

    This is ``naive_eccentricities(graph, backend="process", workers=2)``
    with the sources handed over in a seed-permuted order: the same
    cached pool's ``eccentricities``, called with explicit sources.
    """

    group = "small"
    uses_pools = True

    def _batch(self, name: str, sources: np.ndarray) -> np.ndarray:
        assert self.setup is not None
        return self.setup.pools[name].eccentricities(
            sources, counter=TraversalCounter()
        )

    def _run(self, name: str, traced: Optional[MemorySink]) -> Tuple[float, bool]:
        sources = self.rng.permutation(self.graph(name).num_vertices)

        def batch() -> np.ndarray:
            if traced is None:
                return self._batch(name, sources)
            with tracing(traced):
                return self._batch(name, sources)

        def unpermute(out: np.ndarray) -> np.ndarray:
            ecc = np.empty_like(out)
            ecc[sources] = out
            return ecc

        return self.tally.attempt(name, batch, unpermute)

    def op(self, name: str) -> Tuple[float, bool]:
        return self._run(name, None)

    def _traced(self, name: str, layers: Layers) -> Tuple[float, bool]:
        sink = MemorySink()
        seconds, ok = self._run(name, sink)
        harvest_events(sink.events, layers)
        return seconds, ok


class CliSmall(Workload):
    """Cold ``python -m repro ecc store://NAME -o FILE`` per small graph."""

    group = "small"

    def __init__(self, work: Path, seed: int, tally: Tally) -> None:
        super().__init__(work, seed, tally)
        self.child_rss_kb: List[int] = []

    def _command(self, name: str, extra: List[str]) -> Tuple[float, bool]:
        out = self.work / f"{name}.ecc"
        argv = [sys.executable, "-m", "repro", "ecc", f"store://{name}",
                "-o", str(out)] + extra
        env = dict(os.environ)
        log = self.work / "command.log"

        def command() -> None:
            self.child_rss_kb.append(cold_command(argv, env, log))

        return self.tally.attempt(
            name, command, lambda _: np.loadtxt(out, dtype=np.int64)
        )

    def op(self, name: str) -> Tuple[float, bool]:
        return self._command(name, [])

    def _traced(self, name: str, layers: Layers) -> Tuple[float, bool]:
        """The command with the program's own ``--trace`` record on."""
        return self._command(name, ["--trace", str(self.work / "run.jsonl")])

    def _bare(self, code: str) -> float:
        start = time.perf_counter()
        cold_command([sys.executable, "-c", code], dict(os.environ),
                     self.work / "probe.log")
        return time.perf_counter() - start

    def traced_op(self, name: str, layers: Layers) -> Tuple[float, bool]:
        """The plain command, attributed outside-in to its layers.

        The command runs in a child, so its layers are measured beside
        it: a bare interpreter, a bare ``import repro.cli``, and the same
        command run in-process (``repro.cli.main``) whose open and solve
        are also timed on their own.
        """
        from repro.cli import main

        plain, _traced, ok = self._paired(name, layers)
        interp = self._bare("pass")
        layers["cli.interp_s"] += interp
        layers["cli.import_s"] += self._bare("import repro.cli") - interp

        out = self.work / f"{name}.inproc.ecc"
        argv = ["ecc", f"store://{name}", "-o", str(out)]

        def in_process() -> None:
            with contextlib.redirect_stdout(io.StringIO()):
                if main(argv) != 0:
                    raise CommandFailed("repro.cli.main returned non-zero")

        main_s, main_ok = self.tally.attempt(
            name, in_process, lambda _: np.loadtxt(out, dtype=np.int64)
        )
        assert self.setup is not None
        path = GraphCollection(self.setup.root).path_for(name)
        start = time.perf_counter()
        graph = open_store(path)
        open_s = time.perf_counter() - start
        probes: List[int] = []
        solve: Layers = defaultdict(float)
        solve_s, solve_ok = self.tally.attempt(
            name, lambda: traced_solve(graph, solve, probes)
        )
        for key, value in solve.items():
            layers[key] += value
        layers["store.open_s"] += open_s
        layers["cli.output_s"] += main_s - open_s - solve_s
        self.probes[name] = probes
        return plain, ok and main_ok and solve_ok

    def peak_rss_mb(self) -> float:
        return max(self.child_rss_kb) / 1024.0


WORKLOADS = {
    "ifecc-large": IfeccLarge,
    "cli-small": CliSmall,
    "naive-batch": NaiveBatch,
}
