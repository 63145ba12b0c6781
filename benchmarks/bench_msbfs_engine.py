"""MS-BFS engine shootout — seed lane kernel vs. lane engine vs. loop.

Times a 64-source batch (the unit of Then et al.'s bit-parallel MS-BFS,
the paper's reference [35]) through four contenders on the generator
suite shared with :mod:`bench_bfs_engine`:

* ``seed-msbfs`` — a faithful copy of the seed repo's 1-D uint64 lane
  kernel (top-down only, ``np.bitwise_or.at`` scatter per level);
* ``lanes-top-down`` — :class:`repro.graph.msengine.MSBFSEngine` forced
  top-down (vectorised CSR gathers, transposed recording);
* ``lanes-hybrid`` — the engine with direction-optimizing switching
  (``np.bitwise_or.reduceat`` bottom-up levels) and per-lane retirement;
* ``loop-hybrid`` — the single-source hybrid :class:`repro.graph.engine.
  BFSEngine` looped over the batch (what every consumer paid before the
  batch seam existed).

Both batch products are raced — the eccentricity reduction
(``ecc_batch``, the headline) and the full ``(k, n)`` distance-rows
product — and every contender's distances are asserted bit-identical to
the seed kernels before anything is timed.  Every contender runs on
whichever traversal kernel :mod:`repro.graph.native` loaded (the report
records it as ``kernel``); with the C kernel, ``loop-hybrid`` is the
native single-source loop the lanes must beat.  The Barabási–Albert
rows carry a ``caveat``: they are IFECC's worst case, so these are
kernel micro-benchmarks.  A width-scaling section
re-times the hybrid engine at 64/128/256-source batches, and two
planner ladders on the 12 small Table-3 stand-ins give
:func:`~repro.graph.msengine.plan_lane_width` its rules: all-source
sweeps at each lane width over several graph scales (``width_ladder``),
and random batches of 4-64 sources swept vs looped (``serial_ladder``).
Writes machine-readable ``BENCH_msbfs_engine.json`` at the repository
root.

Run standalone::

    python benchmarks/bench_msbfs_engine.py            # full (n >= 50k)
    python benchmarks/bench_msbfs_engine.py --smoke    # CI-sized graphs

or via pytest (smoke-sized, asserts bit-identity and the report shape)::

    pytest benchmarks/bench_msbfs_engine.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from bench_bfs_engine import seed_bfs_distances, suite_graphs
from repro.graph.csr import Graph
from repro.graph.engine import ALPHA, BETA, BFSEngine, gather_csr_arcs
from repro.graph.msengine import MSBFSEngine, plan_lane_width
from repro.graph.traversal import UNREACHED
from repro.obs.trace import Stopwatch

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_msbfs_engine.json"

#: The speedup the JSON must witness in full mode on the power-law
#: graph: hybrid-lane ``ecc_batch`` vs. looping the single-source
#: hybrid engine over the same 64 sources.
TARGET_SPEEDUP = 2.0

#: Distance rows carry an O(n*k) transpose the eccentricity reduction
#: skips, so the rows product gets a softer target.
ROWS_TARGET_SPEEDUP = 1.5

#: Headline batch size — one full uint64 lane word.
BATCH = 64


# ----------------------------------------------------------------------
# Seed MS-BFS kernel (faithful copy of the pre-engine lane sweep)
# ----------------------------------------------------------------------
def seed_msbfs_rows(graph: Graph, sources: np.ndarray) -> np.ndarray:
    """The seed repo's 64-lane kernel: 1-D uint64 bitmaps, top-down only,
    per-level ``bitwise_or.at`` scatter and dense lane unpack.

    :dtype: int32, shape ``(k, n)``
    """
    n = graph.num_vertices
    k = len(sources)
    if k > 64:
        raise ValueError("seed kernel holds at most 64 lanes")
    dist = np.full((k, n), -1, dtype=np.int32)
    seen = np.zeros(n, dtype=np.uint64)
    frontier = np.zeros(n, dtype=np.uint64)
    scratch = np.zeros(n, dtype=np.uint64)
    lanes = np.arange(k, dtype=np.uint64)
    lane_bits = np.uint64(1) << lanes
    np.bitwise_or.at(frontier, sources, lane_bits)
    np.bitwise_or.at(seen, sources, lane_bits)
    dist[lanes.astype(np.int64), sources] = 0

    indptr, indices = graph.indptr, graph.indices
    level = 0
    active = np.flatnonzero(frontier)
    while len(active):
        level += 1
        next_mask = scratch
        next_mask.fill(0)
        counts = indptr[active + 1] - indptr[active]
        arc_dst, _seg = gather_csr_arcs(indptr, indices, active, counts)
        if len(arc_dst) == 0:
            break
        arc_masks = np.repeat(frontier[active], counts)
        np.bitwise_or.at(next_mask, arc_dst, arc_masks)
        next_mask &= ~seen
        newly = np.flatnonzero(next_mask)
        if len(newly) == 0:
            break
        seen[newly] |= next_mask[newly]
        new_bits = (next_mask[newly, None] >> lanes) & np.uint64(1)
        vert_idx, lane_idx = np.nonzero(new_bits)
        dist[lane_idx, newly[vert_idx]] = level
        scratch, frontier = frontier, next_mask
        active = newly
    return dist


def seed_msbfs_ecc(graph: Graph, sources: np.ndarray) -> np.ndarray:
    """Eccentricities via the seed lane kernel (unreached -> ignored)."""
    rows = seed_msbfs_rows(graph, sources)
    return np.where(rows != -1, rows, 0).max(axis=1).astype(np.int32)


# ----------------------------------------------------------------------
# Contenders
# ----------------------------------------------------------------------
def batch_sources(graph: Graph, count: int, seed: int = 0) -> np.ndarray:
    """``count`` seeded distinct sources, max-degree vertex included."""
    n = graph.num_vertices
    count = min(count, n)
    rng = np.random.default_rng(seed)
    picks = rng.choice(n, size=count, replace=False).astype(np.int64)
    picks[0] = graph.max_degree_vertex()
    return np.unique(picks)


def _loop_rows(engine: BFSEngine, sources: np.ndarray, n: int) -> np.ndarray:
    out = np.empty((len(sources), n), dtype=np.int32)
    for i, s in enumerate(sources):
        out[i, :] = engine.run(int(s), mode="hybrid")
    return out


def _loop_ecc(engine: BFSEngine, sources: np.ndarray) -> np.ndarray:
    out = np.empty(len(sources), dtype=np.int32)
    for i, s in enumerate(sources):
        engine.run(int(s), mode="hybrid")
        out[i] = engine.last_ecc
    return out


def _best_of(run: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        watch = Stopwatch()
        run()
        best = min(best, watch.elapsed())
    return best


def bench_graph(
    name: str,
    family: str,
    graph: Graph,
    repeats: int,
) -> Dict[str, object]:
    """Race the four contenders on one graph's 64-source batch."""
    n = graph.num_vertices
    sources = batch_sources(graph, BATCH)
    k = len(sources)
    ms = MSBFSEngine(graph)
    loop = BFSEngine(graph)

    # --- bit-identity audit (untimed): every contender must agree with
    # the seed lane kernel, which must agree with the seed single-source
    # kernel.  The ecc reductions must match the rows they summarise.
    expected = seed_msbfs_rows(graph, sources)
    for i, s in enumerate(sources):
        if not np.array_equal(expected[i], seed_bfs_distances(graph, int(s))):
            raise AssertionError(
                f"seed lane kernel disagrees with seed BFS on {name}, "
                f"source {int(s)}"
            )
    for mode in ("top-down", "hybrid"):
        got = ms.run_batch(sources, mode=mode)
        if not np.array_equal(expected, got):
            raise AssertionError(
                f"MSBFSEngine mode={mode} disagrees with the seed lane "
                f"kernel on {name}"
            )
    expected_ecc = np.where(expected != UNREACHED, expected, 0).max(axis=1)
    for ecc in (
        ms.ecc_batch(sources),
        ms.ecc_batch(sources, mode="top-down"),
        _loop_ecc(loop, sources),
    ):
        if not np.array_equal(expected_ecc, ecc):
            raise AssertionError(f"ecc reduction mismatch on {name}")
    stats = ms.last_stats

    # --- timed: the eccentricity batch (headline) ...
    ecc_s = {
        "seed-msbfs": _best_of(lambda: seed_msbfs_ecc(graph, sources), repeats),
        "lanes-top-down": _best_of(
            lambda: ms.ecc_batch(sources, mode="top-down"), repeats
        ),
        "lanes-hybrid": _best_of(lambda: ms.ecc_batch(sources), repeats),
        "loop-hybrid": _best_of(lambda: _loop_ecc(loop, sources), repeats),
    }
    # ... and the full (k, n) distance-rows product.
    rows_s = {
        "seed-msbfs": _best_of(lambda: seed_msbfs_rows(graph, sources), repeats),
        "lanes-top-down": _best_of(
            lambda: ms.run_batch(sources, mode="top-down"), repeats
        ),
        "lanes-hybrid": _best_of(lambda: ms.run_batch(sources), repeats),
        "loop-hybrid": _best_of(lambda: _loop_rows(loop, sources, n), repeats),
    }
    return {
        "name": name,
        "family": family,
        "num_vertices": n,
        "num_edges": graph.num_edges,
        "batch": k,
        "planned_width": plan_lane_width(len(graph.indices), k),
        "repeats": repeats,
        "ecc_seconds": ecc_s,
        "rows_seconds": rows_s,
        "speedup_ecc_vs_loop": ecc_s["loop-hybrid"] / ecc_s["lanes-hybrid"]
        if ecc_s["lanes-hybrid"]
        else float("inf"),
        "speedup_rows_vs_loop": rows_s["loop-hybrid"] / rows_s["lanes-hybrid"]
        if rows_s["lanes-hybrid"]
        else float("inf"),
        "speedup_ecc_vs_seed_msbfs": ecc_s["seed-msbfs"]
        / ecc_s["lanes-hybrid"]
        if ecc_s["lanes-hybrid"]
        else float("inf"),
        "hybrid_stats": {
            "levels": stats.levels,
            "directions": list(stats.directions),
            "live_lanes": list(stats.live_lanes),
            "edges_scanned": stats.edges_scanned,
            "edges_inspected": stats.edges_inspected,
            "words_touched": stats.words_touched,
        },
    }


def bench_width_scaling(
    graph: Graph, name: str, repeats: int
) -> List[Dict[str, object]]:
    """Hybrid ``ecc_batch`` at one, two, and four lane words."""
    ms = MSBFSEngine(graph)
    loop = BFSEngine(graph)
    entries: List[Dict[str, object]] = []
    for batch in (64, 128, 256):
        sources = batch_sources(graph, batch)
        if len(sources) < batch:
            continue
        width = plan_lane_width(len(graph.indices), len(sources))
        ms_s = _best_of(lambda: ms.ecc_batch(sources), repeats)
        loop_s = _best_of(lambda: _loop_ecc(loop, sources), repeats)
        entries.append(
            {
                "batch": int(len(sources)),
                "planned_width": width,
                "lanes_hybrid_seconds": ms_s,
                "loop_hybrid_seconds": loop_s,
                "speedup_vs_loop": loop_s / ms_s if ms_s else float("inf"),
            }
        )
        print(
            f"  width-scaling batch={len(sources):>3} (width {width}): "
            f"lanes {ms_s:.4f}s  loop {loop_s:.4f}s "
            f"({loop_s / ms_s:.2f}x)"
        )
    return entries


def _median_of(run: Callable[[], object], repeats: int) -> float:
    times = []
    for _ in range(max(1, repeats)):
        watch = Stopwatch()
        run()
        times.append(watch.elapsed())
    return float(np.median(times))


def _small_standins(scale: float) -> List[Graph]:
    from repro.datasets.loader import build_standin, scaled_spec
    from repro.datasets.registry import dataset_names, get_spec

    return [
        build_standin(scaled_spec(get_spec(name), scale))
        for name in dataset_names("small")
    ]


def bench_width_ladder(
    scales: Sequence[float], repeats: int
) -> List[Dict[str, object]]:
    """All-source ``ecc_batch`` of the 12 small stand-ins per lane width.

    The planner's width rule comes from here: at each scale, every
    vertex's eccentricity is swept in groups of 64, 128 or 256 lanes.
    """
    entries: List[Dict[str, object]] = []
    for scale in scales:
        graphs = _small_standins(scale)
        seconds = {width: 0.0 for width in (64, 128, 256)}
        for graph in graphs:
            ms = MSBFSEngine(graph)
            src = np.arange(graph.num_vertices, dtype=np.int64)
            for width in seconds:

                def sweep(width: int = width) -> None:
                    for start in range(0, len(src), width):
                        ms.ecc_batch(src[start: start + width])

                seconds[width] += _best_of(sweep, repeats)
        sizes = [graph.num_vertices for graph in graphs]
        planned = plan_lane_width(len(graphs[0].indices), min(sizes))
        entries.append(
            {
                "scale": scale,
                "num_vertices": [min(sizes), max(sizes)],
                "seconds": {str(w): t for w, t in seconds.items()},
                "planned_width": planned,
            }
        )
        print(
            f"  width ladder x{scale:g} (n {min(sizes)}-{max(sizes)}): "
            + "  ".join(f"{w} lanes {t:.4f}s" for w, t in seconds.items())
        )
    return entries


def bench_serial_ladder(
    graphs: Sequence[Graph], batches: Sequence[int], repeats: int
) -> List[Dict[str, object]]:
    """Random ``k``-source batches: one lane sweep vs looped single BFS.

    The planner's serial limit comes from here.  Each batch size is
    summed over the graphs and three seeded random batches per graph.
    """
    entries: List[Dict[str, object]] = []
    for k in batches:
        lanes_s = loop_s = 0.0
        for graph in graphs:
            ms = MSBFSEngine(graph)
            loop = BFSEngine(graph)
            rng = np.random.default_rng(k)
            for _ in range(3):
                src = rng.choice(graph.num_vertices, k, replace=False)
                lanes_s += _median_of(lambda: ms.ecc_batch(src), repeats)
                loop_s += _median_of(lambda: _loop_ecc(loop, src), repeats)
        entries.append(
            {
                "batch": k,
                "planned_width": plan_lane_width(1, k),
                "lanes_seconds": lanes_s,
                "loop_seconds": loop_s,
                "loop_over_lanes": loop_s / lanes_s,
            }
        )
        print(
            f"  serial ladder k={k:>3}: lanes {lanes_s:.4f}s "
            f"loop {loop_s:.4f}s ({loop_s / lanes_s:.2f}x)"
        )
    return entries


def run_suite(
    smoke: bool,
    repeats: int,
    out_path: Path,
) -> Dict[str, object]:
    """Run the shootout on every suite graph; write the JSON report."""
    graphs = suite_graphs(smoke)
    results = []
    for name, (family, graph) in graphs.items():
        print(
            f"[bench_msbfs_engine] {name}: n={graph.num_vertices} "
            f"m={graph.num_edges} batch={min(BATCH, graph.num_vertices)} ..."
        )
        entry = bench_graph(name, family, graph, repeats)
        ecc_s = entry["ecc_seconds"]
        print(
            "  ecc: seed-msbfs {seed:.4f}s  td-lanes {td:.4f}s  "
            "hybrid-lanes {hy:.4f}s  loop {loop:.4f}s  "
            "({speed:.2f}x vs loop)".format(
                seed=ecc_s["seed-msbfs"],  # type: ignore[index]
                td=ecc_s["lanes-top-down"],  # type: ignore[index]
                hy=ecc_s["lanes-hybrid"],  # type: ignore[index]
                loop=ecc_s["loop-hybrid"],  # type: ignore[index]
                speed=entry["speedup_ecc_vs_loop"],
            )
        )
        results.append(entry)
    from bench_common import BA_CAVEAT, kernel_label

    powerlaw = next(r for r in results if r["family"] == "random power-law")
    powerlaw["caveat"] = BA_CAVEAT
    powerlaw_graph = graphs[str(powerlaw["name"])][1]
    print(f"[bench_msbfs_engine] width scaling on {powerlaw['name']}:")
    scaling = bench_width_scaling(powerlaw_graph, str(powerlaw["name"]), repeats)
    print("[bench_msbfs_engine] planner ladders on the small stand-ins:")
    ladder_scales = (0.125, 0.25) if smoke else (0.125, 0.25, 0.5, 1.0, 2.0)
    width_ladder = bench_width_ladder(ladder_scales, repeats)
    serial_graphs = _small_standins(0.25 if smoke else 1.0)
    serial_ladder = bench_serial_ladder(
        serial_graphs[:: 4 if smoke else 1],
        (8, 32, 64) if smoke else (4, 8, 12, 16, 24, 32, 48, 64),
        repeats,
    )
    report: Dict[str, object] = {
        "schema": "bench_msbfs_engine/v1",
        "mode": "smoke" if smoke else "full",
        "kernel": kernel_label(),
        "alpha": ALPHA,
        "beta": BETA,
        "batch": BATCH,
        "target_speedup": TARGET_SPEEDUP,
        "rows_target_speedup": ROWS_TARGET_SPEEDUP,
        "bit_identical": True,  # bench_graph raises otherwise
        "graphs": results,
        "width_scaling": scaling,
        "width_ladder": width_ladder,
        "serial_ladder": serial_ladder,
        "aggregate": {
            "powerlaw_speedup_ecc_vs_loop": powerlaw["speedup_ecc_vs_loop"],
            "powerlaw_speedup_rows_vs_loop": powerlaw["speedup_rows_vs_loop"],
            "powerlaw_speedup_ecc_vs_seed_msbfs": powerlaw[
                "speedup_ecc_vs_seed_msbfs"
            ],
        },
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_msbfs_engine] wrote {out_path}")
    return report


# ----------------------------------------------------------------------
# pytest entry point (smoke-sized, asserts bit-identity + report shape)
# ----------------------------------------------------------------------
def test_msbfs_engine_shootout(benchmark) -> None:  # type: ignore[no-untyped-def]
    """Every contender agrees bit for bit on every smoke graph; the
    report lands at the repo root with all four contenders timed."""
    report = benchmark.pedantic(
        lambda: run_suite(smoke=True, repeats=1, out_path=DEFAULT_OUT),
        rounds=1,
        iterations=1,
    )
    assert report["bit_identical"] is True
    assert DEFAULT_OUT.exists()
    for entry in report["graphs"]:
        assert set(entry["ecc_seconds"]) == {
            "seed-msbfs",
            "lanes-top-down",
            "lanes-hybrid",
            "loop-hybrid",
        }
        assert all(s >= 0 for s in entry["ecc_seconds"].values())
    # The planner takes the widest lane group each batch fills.
    widths = {e["batch"]: e["planned_width"] for e in report["width_scaling"]}
    assert widths.get(128) == 128 and widths.get(256) == 256
    assert [e["batch"] for e in report["serial_ladder"]] == [8, 32, 64]


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
        help="output JSON path (default: repo-root BENCH_msbfs_engine.json)",
    )
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    report = run_suite(args.smoke, args.repeats, args.out)
    status = 0
    if not args.smoke:
        agg = report["aggregate"]
        ecc_speed = float(agg["powerlaw_speedup_ecc_vs_loop"])  # type: ignore[index]
        rows_speed = float(agg["powerlaw_speedup_rows_vs_loop"])  # type: ignore[index]
        if ecc_speed < TARGET_SPEEDUP:
            print(
                f"WARNING: hybrid-lane ecc speedup {ecc_speed:.2f}x below "
                f"the {TARGET_SPEEDUP}x target on the power-law graph"
            )
            status = 1
        if rows_speed < ROWS_TARGET_SPEEDUP:
            print(
                f"WARNING: hybrid-lane rows speedup {rows_speed:.2f}x below "
                f"the {ROWS_TARGET_SPEEDUP}x target on the power-law graph"
            )
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
