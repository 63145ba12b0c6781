"""BFS engine benchmark — seed kernel vs. hybrid vs. pool threads.

First point of the repo's perf trajectory: times the direction-optimizing
pooled-workspace :class:`repro.graph.engine.BFSEngine` against (a) a
faithful copy of the seed level-synchronous kernel (per-run allocation,
``np.unique`` frontier dedupe) and (b) the engine forced top-down, on the
generator suite (paper example, random power-law, grid, star).  Both
engine contenders run the numpy level loop; a third, ``native``, times
the same hybrid engine on the C kernel (:mod:`repro.graph.native`) when
it is built, after checking its distances and run stats equal the numpy
engine's.  The Barabási–Albert rows carry a ``caveat``: they are
IFECC's worst case, so these are kernel micro-benchmarks.  Writes
machine-readable ``BENCH_bfs_engine.json`` at the repository root with
per-level direction decisions and edges-inspected counts, so Figure
8-style runtime claims are auditable.  Alongside it the suite writes
``BENCH_trace_ifecc.jsonl`` — a structured :mod:`repro.obs.record` run
record of one traced IFECC run on the power-law graph — so every perf
PR carries a replayable probe-by-probe account, not just aggregates.

The *parallel shootout* section additionally races the full-ED
eccentricity sweep — seed kernel, single-thread hybrid engine, and the
thread pool (:mod:`repro.parallel`) at several worker counts — and
writes ``BENCH_parallel_backend.json`` with speedup-vs-threads plus the
host's ``effective_cpus``, asserting the eccentricities are
bit-identical across every configuration.

Run standalone::

    python benchmarks/bench_bfs_engine.py            # full suite (n >= 50k)
    python benchmarks/bench_bfs_engine.py --smoke    # CI-sized graphs
    python benchmarks/bench_bfs_engine.py --smoke --shootout-only \
        --workers 1,2                                # shootout only

or via pytest (smoke-sized, asserts the shape claims)::

    pytest benchmarks/bench_bfs_engine.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import Graph
from repro.graph.engine import BFSEngine
from repro.graph.generators import (
    barabasi_albert,
    grid_graph,
    paper_example_graph,
    star_graph,
)
from repro.graph.traversal import UNREACHED
from repro.obs.trace import Stopwatch

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_bfs_engine.json"
DEFAULT_TRACE_OUT = REPO_ROOT / "BENCH_trace_ifecc.jsonl"
DEFAULT_PARALLEL_OUT = REPO_ROOT / "BENCH_parallel_backend.json"

#: The aggregate-speedup claim the JSON must witness on the power-law
#: graph (hybrid vs. seed kernel) in full mode.
TARGET_SPEEDUP = 1.5

#: Speedup the thread pool targets at 4 workers vs. the hybrid
#: engine — achievable only on hosts that actually expose >= 4 cores;
#: the report records ``effective_cpus`` so a miss on a constrained box
#: is distinguishable from a regression.
PARALLEL_TARGET_SPEEDUP = 2.0
PARALLEL_TARGET_WORKERS = 4


# ----------------------------------------------------------------------
# Seed kernel (faithful copy of the pre-engine bfs_distances_bounded)
# ----------------------------------------------------------------------
def seed_bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """The original level-synchronous kernel: fresh O(n) state per run,
    every duplicate neighbor materialised, ``np.unique`` sort per level."""
    indptr, indices = graph.indptr, graph.indices
    n = graph.num_vertices
    dist = np.full(n, UNREACHED, dtype=np.int32)
    dist[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        csum = np.cumsum(counts)
        offsets = np.repeat(starts - (csum - counts), counts)
        neighbors = indices[np.arange(total, dtype=np.int64) + offsets]
        fresh = neighbors[dist[neighbors] == UNREACHED]
        if len(fresh) == 0:
            break
        level += 1
        dist[fresh] = level
        frontier = np.unique(fresh).astype(np.int64)
    return dist


# ----------------------------------------------------------------------
# Suite definition
# ----------------------------------------------------------------------
def suite_graphs(smoke: bool) -> Dict[str, Tuple[str, Graph]]:
    """Benchmark graphs: ``name -> (family, graph)``."""
    if smoke:
        return {
            "paper-example": ("paper example", paper_example_graph()),
            "powerlaw-4k": (
                "random power-law",
                barabasi_albert(4_000, 4, seed=7),
            ),
            "grid-40x30": ("grid", grid_graph(40, 30)),
            "star-3k": ("star", star_graph(3_000)),
        }
    return {
        "paper-example": ("paper example", paper_example_graph()),
        "powerlaw-50k": (
            "random power-law",
            barabasi_albert(50_000, 4, seed=7),
        ),
        "grid-250x200": ("grid", grid_graph(250, 200)),
        "star-50k": ("star", star_graph(50_000)),
    }


def pick_sources(graph: Graph, count: int, seed: int = 0) -> List[int]:
    """Max-degree vertex plus seeded random vertices (BFS sources)."""
    rng = np.random.default_rng(seed)
    sources = [graph.max_degree_vertex()]
    while len(sources) < min(count, graph.num_vertices):
        v = int(rng.integers(0, graph.num_vertices))
        if v not in sources:
            sources.append(v)
    return sources


def _time_total(
    kernel: Callable[[int], np.ndarray],
    sources: Sequence[int],
    repeats: int,
) -> float:
    """Best-of-``repeats`` total seconds to run ``kernel`` on all sources."""
    best = float("inf")
    for _ in range(repeats):
        watch = Stopwatch()
        for s in sources:
            kernel(s)
        best = min(best, watch.elapsed())
    return best


def bench_graph(
    name: str,
    family: str,
    graph: Graph,
    num_sources: int,
    repeats: int,
) -> Dict[str, object]:
    """Time the three kernels on one graph and audit the hybrid runs."""
    from bench_common import BA_CAVEAT, numpy_kernel
    from repro.graph.native import kernels

    sources = pick_sources(graph, num_sources)
    # Dedicated engines so pooled buffers are warm but stats are ours.
    hybrid = BFSEngine(graph)
    topdown = BFSEngine(graph)
    compiled = BFSEngine(graph) if kernels() is not None else None

    # Correctness audit + per-run direction/edge accounting (untimed).
    runs: List[Dict[str, object]] = []
    for s in sources:
        expected = seed_bfs_distances(graph, s)
        with numpy_kernel():
            got = hybrid.run(s, mode="hybrid")
        if not np.array_equal(expected, got):
            raise AssertionError(
                f"hybrid BFS disagrees with seed kernel on {name}, "
                f"source {s}"
            )
        stats = hybrid.last_stats
        if compiled is not None and (
            not np.array_equal(expected, compiled.run(s))
            or compiled.last_stats != stats
        ):
            raise AssertionError(
                f"native BFS disagrees with the numpy engine on {name}, "
                f"source {s}"
            )
        runs.append(
            {
                "source": s,
                "eccentricity": hybrid.last_ecc,
                "levels": stats.levels,
                "directions": list(stats.directions),
                "frontier_sizes": list(stats.frontier_sizes),
                "edges_scanned": stats.edges_scanned,
                "edges_inspected": stats.edges_inspected,
            }
        )

    seed_s = _time_total(lambda s: seed_bfs_distances(graph, s), sources, repeats)
    with numpy_kernel():
        td_s = _time_total(
            lambda s: topdown.run(s, mode="top-down"), sources, repeats
        )
        hy_s = _time_total(
            lambda s: hybrid.run(s, mode="hybrid"), sources, repeats
        )
    native_s = (
        _time_total(lambda s: compiled.run(s), sources, repeats)
        if compiled is not None
        else None
    )
    entry: Dict[str, object] = {
        "name": name,
        "family": family,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "sources": sources,
        "repeats": repeats,
        "seed_seconds": seed_s,
        "topdown_seconds": td_s,
        "hybrid_seconds": hy_s,
        "speedup_topdown_vs_seed": seed_s / td_s if td_s else float("inf"),
        "speedup_hybrid_vs_seed": seed_s / hy_s if hy_s else float("inf"),
        "native_seconds": native_s,
        "speedup_native_vs_hybrid": (
            hy_s / native_s if native_s else None
        ),
        "speedup_native_vs_seed": seed_s / native_s if native_s else None,
        "runs": runs,
    }
    if family == "random power-law":
        entry["caveat"] = BA_CAVEAT
    return entry


def run_suite(
    smoke: bool,
    num_sources: int,
    repeats: int,
    out_path: Path,
) -> Dict[str, object]:
    """Run every suite graph and write the JSON report."""
    from bench_common import kernel_label
    from repro.graph.engine import ALPHA, BETA

    graphs = suite_graphs(smoke)
    results = []
    for name, (family, graph) in graphs.items():
        print(
            f"[bench_bfs_engine] {name}: n={graph.num_vertices} "
            f"m={graph.num_edges} ..."
        )
        entry = bench_graph(name, family, graph, num_sources, repeats)
        print(
            "  seed {seed_seconds:.4f}s  top-down {topdown_seconds:.4f}s  "
            "hybrid {hybrid_seconds:.4f}s  (hybrid speedup "
            "{speedup_hybrid_vs_seed:.2f}x)".format(**entry)  # type: ignore[str-format]
        )
        if entry["native_seconds"] is not None:
            print(
                f"  native {entry['native_seconds']:.4f}s  "
                f"({entry['speedup_native_vs_hybrid']:.2f}x vs numpy hybrid)"
            )
        results.append(entry)
    powerlaw = next(r for r in results if r["family"] == "random power-law")
    report: Dict[str, object] = {
        "schema": "bench_bfs_engine/v1",
        "mode": "smoke" if smoke else "full",
        "kernel": kernel_label(),
        "alpha": ALPHA,
        "beta": BETA,
        "target_speedup": TARGET_SPEEDUP,
        "graphs": results,
        "aggregate": {
            "seed_seconds": sum(r["seed_seconds"] for r in results),  # type: ignore[misc]
            "topdown_seconds": sum(r["topdown_seconds"] for r in results),  # type: ignore[misc]
            "hybrid_seconds": sum(r["hybrid_seconds"] for r in results),  # type: ignore[misc]
            "powerlaw_speedup_hybrid_vs_seed": powerlaw[
                "speedup_hybrid_vs_seed"
            ],
            "powerlaw_speedup_native_vs_hybrid": powerlaw[
                "speedup_native_vs_hybrid"
            ],
        },
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_bfs_engine] wrote {out_path}")

    from bench_common import write_trace_record

    powerlaw_name = str(powerlaw["name"])
    trace_path = out_path.parent / DEFAULT_TRACE_OUT.name
    trace_record = write_trace_record(graphs[powerlaw_name][1], trace_path)
    print(
        f"[bench_bfs_engine] wrote {trace_path} "
        f"({len(trace_record.events)} events, "
        f"{trace_record.result.get('num_traversals', '?')} traversals)"
    )
    return report


# ----------------------------------------------------------------------
# Parallel shootout (seed vs hybrid vs threads x workers)
# ----------------------------------------------------------------------
def _effective_cpus() -> int:
    """Cores this process may actually run on (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _shootout_sources(graph: Graph, count: Optional[int]) -> np.ndarray:
    """Max-degree vertex + seeded distinct random sources (or all)."""
    n = graph.num_vertices
    if count is None or count >= n:
        return np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(0)
    picks = rng.choice(n, size=count, replace=False).astype(np.int64)
    picks[0] = graph.max_degree_vertex()
    return np.unique(picks)


def _seed_ecc_sweep(graph: Graph, sources: np.ndarray) -> np.ndarray:
    """Full-ED over ``sources`` with the seed kernel (the PR-2 baseline)."""
    ecc = np.empty(len(sources), dtype=np.int32)
    for i, s in enumerate(sources):
        dist = seed_bfs_distances(graph, int(s))
        reached = dist[dist != UNREACHED]
        ecc[i] = int(reached.max()) if len(reached) else 0
    return ecc


def run_shootout(
    smoke: bool,
    workers_list: Sequence[int],
    num_sources: Optional[int],
    repeats: int,
    out_path: Path,
) -> Dict[str, object]:
    """Race the ED sweep across worker counts; write the JSON scorecard.

    ``num_sources=None`` sweeps every vertex (the true full ED).
    """
    from repro.parallel.pool import TraversalPool

    if smoke:
        name, graph = "powerlaw-4k", barabasi_albert(4_000, 4, seed=7)
    else:
        name, graph = "powerlaw-50k", barabasi_albert(50_000, 4, seed=7)
    sources = _shootout_sources(graph, num_sources)
    print(
        f"[bench_parallel] {name}: n={graph.num_vertices} "
        f"m={graph.num_edges} sources={len(sources)} "
        f"effective_cpus={_effective_cpus()}"
    )

    engine = BFSEngine(graph)
    reference = engine.ecc_batch(sources).copy()

    def time_config(run: Callable[[], np.ndarray]) -> Tuple[float, bool]:
        """Best-of-``repeats`` seconds + bit-identity vs. the reference."""
        best = float("inf")
        identical = True
        for _ in range(max(1, repeats)):
            watch = Stopwatch()
            ecc = run()
            best = min(best, watch.elapsed())
            identical = identical and np.array_equal(ecc, reference)
        return best, identical

    configs: List[Dict[str, object]] = []
    seed_s, seed_ok = time_config(lambda: _seed_ecc_sweep(graph, sources))
    configs.append(
        {"config": "seed", "workers": 0, "seconds": seed_s,
         "bit_identical": seed_ok}
    )
    print(f"  seed kernel      {seed_s:.4f}s")
    hybrid_s, hybrid_ok = time_config(lambda: engine.ecc_batch(sources))
    configs.append(
        {"config": "hybrid", "workers": 0, "seconds": hybrid_s,
         "bit_identical": hybrid_ok}
    )
    print(f"  hybrid engine    {hybrid_s:.4f}s")
    for workers in workers_list:
        pool = TraversalPool(graph, workers=workers)
        pool_s, pool_ok = time_config(lambda: pool.eccentricities(sources))
        configs.append(
            {
                "config": f"threads x{workers}",
                "workers": workers,
                "seconds": pool_s,
                "bit_identical": pool_ok,
                "speedup_vs_hybrid": hybrid_s / pool_s if pool_s else 0.0,
            }
        )
        print(
            f"  threads x{workers}       {pool_s:.4f}s "
            f"({hybrid_s / pool_s:.2f}x vs hybrid)"
        )

    all_identical = all(bool(c["bit_identical"]) for c in configs)
    best_speedup = max(
        (float(c.get("speedup_vs_hybrid", 0.0)) for c in configs), default=0.0
    )
    from bench_common import BA_CAVEAT, kernel_label

    report: Dict[str, object] = {
        "schema": "bench_parallel_backend/v1",
        "mode": "smoke" if smoke else "full",
        "kernel": kernel_label(),
        "graph": name,
        "caveat": BA_CAVEAT,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_sources": int(len(sources)),
        "full_ed": bool(len(sources) == graph.num_vertices),
        "repeats": repeats,
        "effective_cpus": _effective_cpus(),
        "target_speedup": PARALLEL_TARGET_SPEEDUP,
        "target_workers": PARALLEL_TARGET_WORKERS,
        "configs": configs,
        "bit_identical": all_identical,
        "best_speedup_vs_hybrid": best_speedup,
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_parallel] wrote {out_path}")
    if not all_identical:
        raise AssertionError(
            "parallel shootout produced non-identical eccentricities"
        )
    return report


# ----------------------------------------------------------------------
# pytest entry point (smoke-sized, asserts the shape claims)
# ----------------------------------------------------------------------
def test_engine_beats_seed_kernel(benchmark) -> None:  # type: ignore[no-untyped-def]
    """Hybrid ≡ seed on every suite graph; bottom-up fires on the dense
    families; the JSON report lands at the repo root."""
    report = benchmark.pedantic(
        lambda: run_suite(
            smoke=True, num_sources=3, repeats=1, out_path=DEFAULT_OUT
        ),
        rounds=1,
        iterations=1,
    )
    graphs = {g["name"]: g for g in report["graphs"]}
    # Direction switching engages on the scale-free and star families.
    powerlaw_dirs = [
        d for r in graphs["powerlaw-4k"]["runs"] for d in r["directions"]
    ]
    star_dirs = [d for r in graphs["star-3k"]["runs"] for d in r["directions"]]
    assert "bu" in powerlaw_dirs
    assert "bu" in star_dirs
    # Bottom-up levels inspect edges they never scan.
    for r in graphs["powerlaw-4k"]["runs"]:
        assert r["edges_inspected"] >= r["edges_scanned"]
    assert DEFAULT_OUT.exists()
    # The run-record artifact rides along and round-trips.
    assert DEFAULT_TRACE_OUT.exists()
    from repro.obs.record import RunRecord

    rec = RunRecord.read_jsonl(str(DEFAULT_TRACE_OUT))
    assert rec.result["exact"] is True
    assert len(rec.probe_events()) == rec.result["num_traversals"]


def test_parallel_backend_shootout(benchmark) -> None:  # type: ignore[no-untyped-def]
    """The thread pool is bit-identical to the hybrid engine on the
    smoke graph; the scorecard JSON lands at the repo root."""
    report = benchmark.pedantic(
        lambda: run_shootout(
            smoke=True,
            workers_list=[2],
            num_sources=48,
            repeats=1,
            out_path=DEFAULT_PARALLEL_OUT,
        ),
        rounds=1,
        iterations=1,
    )
    assert report["bit_identical"] is True
    assert report["effective_cpus"] >= 1
    assert DEFAULT_PARALLEL_OUT.exists()
    pool_cfgs = [
        c for c in report["configs"] if c["config"].startswith("threads")
    ]
    assert pool_cfgs and all(c["seconds"] > 0 for c in pool_cfgs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized graphs (seconds, not minutes)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help="output JSON path (default: repo-root BENCH_bfs_engine.json)",
    )
    parser.add_argument("--sources", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--shootout-only",
        action="store_true",
        help="skip the kernel suite, run only the parallel shootout",
    )
    parser.add_argument(
        "--no-shootout",
        action="store_true",
        help="skip the parallel shootout",
    )
    parser.add_argument(
        "--workers",
        type=str,
        default="1,2,4",
        help="comma-separated worker counts for the shootout",
    )
    parser.add_argument(
        "--parallel-out",
        type=Path,
        default=DEFAULT_PARALLEL_OUT,
        help="shootout JSON path (default: BENCH_parallel_backend.json)",
    )
    parser.add_argument(
        "--full-ed",
        action="store_true",
        help="shootout sweeps every vertex instead of a source sample",
    )
    args = parser.parse_args(argv)
    num_sources = args.sources if args.sources else (3 if args.smoke else 8)
    status = 0
    if not args.shootout_only:
        report = run_suite(args.smoke, num_sources, args.repeats, args.out)
        speedup = report["aggregate"]["powerlaw_speedup_hybrid_vs_seed"]  # type: ignore[index]
        if not args.smoke and speedup < TARGET_SPEEDUP:
            print(
                f"WARNING: hybrid speedup {speedup:.2f}x below the "
                f"{TARGET_SPEEDUP}x target on the power-law graph"
            )
            status = 1
    if not args.no_shootout:
        workers_list = [int(w) for w in args.workers.split(",") if w]
        shootout_sources = (
            None if args.full_ed else (48 if args.smoke else 512)
        )
        shootout = run_shootout(
            args.smoke,
            workers_list,
            shootout_sources,
            args.repeats,
            args.parallel_out,
        )
        if not args.smoke:
            best = float(shootout["best_speedup_vs_hybrid"])  # type: ignore[arg-type]
            cpus = int(shootout["effective_cpus"])  # type: ignore[arg-type]
            if best < PARALLEL_TARGET_SPEEDUP:
                print(
                    f"WARNING: thread-pool speedup {best:.2f}x below "
                    f"the {PARALLEL_TARGET_SPEEDUP}x target "
                    f"(effective_cpus={cpus})"
                )
                if cpus >= PARALLEL_TARGET_WORKERS:
                    status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
