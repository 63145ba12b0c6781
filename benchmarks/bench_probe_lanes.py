"""Probe-lane planner ladder: lane probes vs single probes in IFECC.

IFECC's FFO sweep (:meth:`repro.core.solver.EccentricitySolver.
_sweep_territory`) offers the oracle a run of FFO candidates; the
unweighted oracle answers a prefix of it with one MS-BFS lane sweep
when :func:`repro.graph.msengine.plan_probe_lanes` says lanes pay, else
with one single-source BFS.  This harness measures the two knobs of
that planner on the paper's workload, the exact ED of the Table-3
stand-ins (``IFECC(graph).run()``, r = 1):

* **size ladder** — every stand-in at several scales, timed with lane
  probes forced on (floor 0) and forced off, so the vertex floor sits
  where lanes start to pay;
* **rule ladder** — on the 8 large stand-ins, the target rule
  ``|targets| * 64 <= c * n`` for several ``c`` and the lane count per
  sweep (64 / 128 / 256).

Every timed configuration is first checked to give bit-identical
eccentricities, bounds and probe counts to single probes.  Times are
the median of ``--repeats`` solves per graph, best over ``--rounds``
interleaved rounds.  The report goes to
``benchmarks/results/probe_lanes.txt``.

Run standalone::

    python benchmarks/bench_probe_lanes.py            # full ladder
    python benchmarks/bench_probe_lanes.py --smoke    # 3 graphs, seconds

or via pytest (smoke-sized; asserts identity and the report shape)::

    pytest benchmarks/bench_probe_lanes.py --benchmark-only
"""

from __future__ import annotations

import argparse
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from bench_common import kernel_label, record
from repro.core.ifecc import IFECC
from repro.datasets.loader import build_standin, scaled_spec
from repro.datasets.registry import dataset_names, get_spec
from repro.graph import msengine
from repro.graph.csr import Graph

#: Scales per group for the size ladder (n spans about 1.4K to 33K).
SIZE_SCALES = {"small": (1.0, 2.0, 4.0), "large": (0.25, 0.5, 1.0)}

#: The rule ladder: ``c`` in ``|targets| * 64 <= c * n``, and lanes.
RULE_FACTORS = (1, 2, 4, 8, 16)
RULE_LANES = (64, 128, 256)

#: A floor no graph reaches: single probes throughout.
NEVER = 1 << 62


class SizeRow(NamedTuple):
    graph: str
    n: int
    m: int
    probes: int
    wasted_lanes: int
    singles_s: float
    lanes_s: float


class RuleRow(NamedTuple):
    config: str
    seconds: float
    wasted_lanes: int


@contextmanager
def planner(floor: int, factor: float = 4, lanes: int = 64) -> Iterator[None]:
    """Run the block with the probe-lane planner's constants replaced."""
    saved = (
        msengine._PROBE_MIN_VERTICES,
        msengine._PROBE_TARGETS_PER_VERTEX,
        msengine._PROBE_LANES,
    )
    msengine._PROBE_MIN_VERTICES = floor
    msengine._PROBE_TARGETS_PER_VERTEX = factor / msengine.LANE_WORD_BITS
    msengine._PROBE_LANES = lanes
    try:
        yield
    finally:
        (
            msengine._PROBE_MIN_VERTICES,
            msengine._PROBE_TARGETS_PER_VERTEX,
            msengine._PROBE_LANES,
        ) = saved


def _solve(graph: Graph) -> Tuple[bytes, int, int]:
    """One exact ED; returns (bounds digest, probes, wasted lanes)."""
    solver = IFECC(graph)
    result = solver.run()
    digest = result.lower.tobytes() + result.upper.tobytes()
    return digest, result.num_bfs, solver.counter.speculative_lanes


def _median_seconds(graph: Graph, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        IFECC(graph).run()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def ladder_graphs(smoke: bool) -> Dict[str, Graph]:
    """The size-ladder graphs, named ``NAME@scale``."""
    if smoke:
        picks = [("DBLP", 1.0), ("STAC", 1.0), ("UK02", 0.5)]
    else:
        picks = [
            (name, scale)
            for group, scales in SIZE_SCALES.items()
            for name in dataset_names(group)
            for scale in scales
        ]
    return {
        f"{name}@{scale:g}": build_standin(scaled_spec(get_spec(name), scale))
        for name, scale in picks
    }


def size_ladder(
    graphs: Dict[str, Graph], repeats: int, rounds: int
) -> List[SizeRow]:
    """Lanes forced on vs off per graph (rule c = 4, 64 lanes)."""
    rows: List[SizeRow] = []
    for name, graph in graphs.items():
        with planner(NEVER):
            single = _solve(graph)
        with planner(0):
            lane = _solve(graph)
        if lane[:2] != single[:2]:
            raise AssertionError(f"lane probes changed the answer on {name}")
        best = {"singles": float("inf"), "lanes": float("inf")}
        for _ in range(rounds):
            for arm, floor in (("singles", NEVER), ("lanes", 0)):
                with planner(floor):
                    best[arm] = min(best[arm], _median_seconds(graph, repeats))
        rows.append(
            SizeRow(
                name,
                graph.num_vertices,
                graph.num_edges,
                single[1],
                lane[2],
                best["singles"],
                best["lanes"],
            )
        )
    rows.sort(key=lambda row: row.n)
    return rows


def rule_ladder(
    graphs: Dict[str, Graph], repeats: int, rounds: int
) -> List[RuleRow]:
    """Total ED time over ``graphs`` per (c, lanes), singles first."""
    configs: List[Tuple[str, int, float, int]] = [("singles", NEVER, 4, 64)]
    configs += [
        (f"c={factor} lanes={lanes}", 0, factor, lanes)
        for factor in RULE_FACTORS
        for lanes in RULE_LANES
    ]
    expected = {}
    with planner(NEVER):
        for name, graph in graphs.items():
            expected[name] = _solve(graph)[:2]
    best = {label: float("inf") for label, *_ in configs}
    wasted = {label: 0 for label, *_ in configs}
    for round_ in range(rounds):
        for label, floor, factor, lanes in configs:
            with planner(floor, factor, lanes):
                if round_ == 0:
                    for name, graph in graphs.items():
                        digest, probes, spec = _solve(graph)
                        if (digest, probes) != expected[name]:
                            raise AssertionError(
                                f"{label} changed the answer on {name}"
                            )
                        wasted[label] += spec
                total = sum(
                    _median_seconds(graph, repeats)
                    for graph in graphs.values()
                )
            best[label] = min(best[label], total)
    return [
        RuleRow(label, best[label], wasted[label]) for label, *_ in configs
    ]


def report(sizes: List[SizeRow], rules: List[RuleRow]) -> List[str]:
    lines = [f"kernel: {kernel_label()}", "", "size ladder (c = 4, 64 lanes):"]
    lines.append(
        f"  {'graph':<10} {'n':>6} {'m':>7} {'probes':>6} {'wasted':>6} "
        f"{'singles ms':>10} {'lanes ms':>9} {'ratio':>6}"
    )
    for row in sizes:
        lines.append(
            f"  {row.graph:<10} {row.n:>6} {row.m:>7} {row.probes:>6} "
            f"{row.wasted_lanes:>6} {1e3 * row.singles_s:>10.2f} "
            f"{1e3 * row.lanes_s:>9.2f} {row.lanes_s / row.singles_s:>6.2f}"
        )
    if rules:
        base = rules[0].seconds
        lines += ["", "rule ladder (large stand-ins, total ED time):"]
        for rule in rules:
            lines.append(
                f"  {rule.config:<20} {1e3 * rule.seconds:>8.1f} ms "
                f"x{rule.seconds / base:.3f}  wasted lanes {rule.wasted_lanes}"
            )
    return lines


def run(smoke: bool, repeats: int, rounds: int) -> List[str]:
    sizes = size_ladder(ladder_graphs(smoke), repeats, rounds)
    rules: List[RuleRow] = []
    if not smoke:
        large = {
            name: build_standin(get_spec(name))
            for name in dataset_names("large")
        }
        rules = rule_ladder(large, repeats, rounds)
    lines = report(sizes, rules)
    record("probe_lanes", lines)
    return lines


def test_probe_lanes_ladder(benchmark) -> None:  # type: ignore[no-untyped-def]
    """Smoke ladder: identical answers, one row per graph."""
    lines = benchmark.pedantic(
        lambda: run(smoke=True, repeats=1, rounds=1), rounds=1, iterations=1
    )
    assert sum(1 for line in lines if "@" in line) == 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="3 graphs")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    run(args.smoke, args.repeats, args.rounds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
