"""End-to-end exact-ED benchmark with outside-in layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload ifecc-large --seed 1 --seconds 12 --trace 0

Workloads: ``ifecc-large``, ``cli-small``, ``naive-batch`` (see
README.md).  With ``--trace 0`` the run reports the end-to-end metrics,
with ``--trace 1`` the per-layer ones.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The line before it stamps the host and the sample counts.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, DefaultDict, Dict, List, Tuple

WORK_ROOT = Path(".perfbench_work")


def host_facts() -> Dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "gcc": shutil.which("gcc") is not None,
        "scipy": importlib.util.find_spec("scipy") is not None,
    }


def tail_percentile(values: List[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples above it.

    Empty under 20 samples, where no such percentile is meaningful.
    """
    n = len(values)
    if n < 20:
        return {}
    rank = n - 11  # ten samples lie above this index
    return {f"op_s_p{100.0 * (rank + 1) / n:.0f}": sorted(values)[rank]}


def run_passes(
    seconds: float, names: Callable[[], List[str]],
    op: Callable[[str], Tuple[float, bool]],
) -> Tuple[List[float], List[Tuple[str, float]]]:
    """Whole passes until ``seconds`` have elapsed (at least one).

    Returns each pass's summed operation seconds and every operation's
    ``(graph, seconds)``.
    """
    passes: List[float] = []
    ops: List[Tuple[str, float]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        total = 0.0
        for name in names():
            op_s, _ok = op(name)
            ops.append((name, op_s))
            total += op_s
        passes.append(total)
    return passes, ops


def measure(workload: Any, seconds: float) -> Tuple[Dict[str, float], Dict]:
    """Untraced run: the end-to-end metrics.

    ``ed_s``, ``op_s`` and ``ecc_per_s`` are three views of one figure,
    the pass time built from each graph's median operation time; each is
    the headline of one workload (ifecc-large, cli-small, naive-batch).
    """
    from workloads import SETUPS

    setups = [workload.set_up().wall_s for _ in range(SETUPS)]
    for name in workload.order():  # warm-up pass
        workload.op(name)
    passes, ops = run_passes(seconds, workload.order, workload.op)
    per_graph: Dict[str, List[float]] = defaultdict(list)
    for name, op_s in ops:
        per_graph[name].append(op_s)
    ed_s = sum(statistics.median(times) for times in per_graph.values())
    vertices = sum(workload.graph(name).num_vertices for name in per_graph)
    metrics = {
        "ed_s": ed_s,
        "op_s": ed_s / len(per_graph),
        "ecc_per_s": vertices / ed_s,
        "peak_rss_mb": workload.peak_rss_mb(),
        "setup_s": statistics.median(setups),
    }
    samples = {
        "passes": len(passes), "operations": len(ops), "setups": len(setups),
        **tail_percentile([op_s for _name, op_s in ops]),
    }
    return metrics, samples


def measure_traced(workload: Any, seconds: float) -> Tuple[Dict, Dict]:
    """Traced run: per-layer metrics; pass layers are per traced pass."""
    setup = workload.set_up()
    for name in workload.order():  # warm-up pass
        workload.op(name)
    layers: DefaultDict[str, float] = defaultdict(float)
    passes, _ops = run_passes(
        seconds, workload.order, lambda n: workload.traced_op(n, layers)
    )
    workload.anchor(layers)
    count = len(passes)

    def per(key: str) -> float:
        return layers[key] / count

    probes = layers["solver.probes"]
    lane_levels = layers["msengine.lane_levels"]
    m = {
        "datasets.materialize_s": setup.materialize_s,
        "pool.start_s": setup.pool_start_s,
        "trace.setup_s": setup.wall_s,
        "trace.setup_unattributed_s":
            setup.wall_s - setup.materialize_s - setup.pool_start_s,
        "store.open_s": per("store.open_s"),
        "cli.interp_s": per("cli.interp_s"),
        "cli.import_s": per("cli.import_s"),
        "cli.output_s": per("cli.output_s"),
        "reference.select_s": per("reference.select_s"),
        "solver.self_s": per("solver.self_s"),
        "solver.probes": per("solver.probes"),
        "solver.useful_probe_ratio":
            layers["solver.useful_probes"] / probes if probes else 0.0,
        "engine.probe_s": per("engine.probe_s"),
        "engine.edges_inspected": per("engine.edges_inspected"),
        "engine.vertices_visited": per("engine.vertices_visited"),
        "msengine.sweeps": per("msengine.sweeps"),
        "msengine.words_touched": per("msengine.words_touched"),
        "msengine.lane_occupancy":
            layers["msengine.live_lanes"] / lane_levels if lane_levels
            else 0.0,
        "pool.batch_s": per("pool.batch_s"),
        "pool.worker_busy_s": per("pool.worker_busy_s"),
        "pool.wait_s": per("pool.batch_s") - per("pool.busiest_worker_s"),
        "obs.trace_overhead":
            layers["obs.traced_s"] / layers["obs.plain_s"] - 1.0,
        "anchor.scipy_bfs_s": layers["anchor.scipy_bfs_s"],
        "trace.pass_s": sum(passes) / count,
    }
    m["trace.unattributed_s"] = m["trace.pass_s"] - sum(
        m[key] for key in PASS_SELF_TIMES
    )
    return m, {"traced_passes": count}


#: Self-times on a pass's blocking path; with ``trace.unattributed_s``
#: they add up to ``trace.pass_s``.
PASS_SELF_TIMES = (
    "store.open_s", "cli.interp_s", "cli.import_s", "cli.output_s",
    "reference.select_s", "solver.self_s", "engine.probe_s", "pool.batch_s",
)


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker helper process.

    The spawn pool of the set-up and the shared-memory pools start it;
    left alone it would outlive this process by a moment.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def load_spec() -> Dict[str, Any]:
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd().resolve() / "src"
    sys.path.insert(0, str(src))
    # CLI children and spawned set-up workers import the same copy.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    )
    try:
        import repro  # the program under test, from this checkout only
        from checker import Tally, load_expected
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"perfbench: repro imported from {repro.__file__}, not from "
              "./src; run from the repository root", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    spec = load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    tally = Tally(load_expected())
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](work, args.seed, tally)
    try:
        if args.trace:
            values, samples = measure_traced(workload, args.seconds)
        else:
            values, samples = measure(workload, args.seconds)
    finally:
        workload.close()
        from repro.parallel.pool import shutdown_pools

        shutdown_pools()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
        stop_resource_tracker()
    print(json.dumps({"host": host_facts(), "workload": args.workload,
                      "seed": args.seed, "samples": samples,
                      "failures": tally.failures[:10]}))
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
