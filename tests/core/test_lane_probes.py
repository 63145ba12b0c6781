"""Lane probes give exactly the answers of single probes.

IFECC's FFO sweep may answer several candidates with one MS-BFS lane
sweep (:func:`repro.graph.msengine.plan_probe_lanes`).  Every applied
lane must leave the observables of one-at-a-time probing untouched:
eccentricities, bounds, ``num_bfs``, every ``steps()`` snapshot and
every traced ``solver.probe`` span.  Each test compares a run under the
real planner (or with its floor lowered to 0, so small graphs sweep
lanes too) against a run with lanes switched off.  The module runs once
per traversal kernel (``tests/conftest.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest

from repro.core.extremes import oracle_radius_and_diameter
from repro.core.ifecc import IFECC
from repro.core.oracles import BFSOracle
from repro.datasets.loader import build_standin, scaled_spec
from repro.datasets.registry import get_spec
from repro.errors import InvalidParameterError, InvalidVertexError
from repro.graph import msengine
from repro.graph.components import largest_connected_component
from repro.graph.generators import (
    attach_handles,
    barabasi_albert,
    copying_model,
)
from repro.graph.msengine import MSBFSEngine
from repro.obs.trace import MemorySink, deterministic_view, tracing

#: A floor no graph reaches: single probes throughout.
NEVER = 1 << 62


@contextmanager
def probe_floor(floor: int) -> Iterator[None]:
    """Run the block with the probe-lane planner's vertex floor replaced."""
    saved = msengine._PROBE_MIN_VERTICES
    msengine._PROBE_MIN_VERTICES = floor
    try:
        yield
    finally:
        msengine._PROBE_MIN_VERTICES = saved


@pytest.fixture(scope="module")
def graphs():
    """Stand-in-shaped graphs above the real floor, plus a small one.

    ``small`` only sweeps lanes with the floor lowered to 0.
    """
    floor = msengine._PROBE_MIN_VERTICES
    web = copying_model(floor + 1500, 3, copy_probability=0.65, seed=5)
    web = attach_handles(web, 40, 24, seed=6)
    social = barabasi_albert(floor + 800, 3, seed=7)
    social = attach_handles(social, 30, 20, seed=8)
    out = {}
    for name, graph in (("web", web), ("social", social)):
        out[name], _ids = largest_connected_component(graph)
    # A 620-vertex UK02 stand-in: its deep periphery resolves one vertex
    # per probe, so it reaches the lane rule's few-targets regime.
    out["small"] = build_standin(scaled_spec(get_spec("UK02"), 0.05))
    assert out["web"].num_vertices >= floor
    assert out["social"].num_vertices >= floor
    return out


#: (graph, floor for the lane arm)
CASES = [("web", None), ("social", None), ("small", 0)]


def _lane_floor(floor):
    return msengine._PROBE_MIN_VERTICES if floor is None else floor


def _observe(graph, floor, **kwargs):
    """Snapshots, bounds, num_bfs and the counter of one full run."""
    with probe_floor(floor):
        solver = IFECC(graph, **kwargs)
        snaps = [
            (s.bfs_runs, s.source, s.resolved) for s in solver.steps()
        ]
    return (
        snaps,
        solver.bounds.lower.tolist(),
        solver.bounds.upper.tolist(),
        solver.counter.bfs_runs,
    ), solver.counter


@pytest.mark.parametrize("name,floor", CASES)
@pytest.mark.parametrize("refs", [1, 3])
@pytest.mark.parametrize("memo", [False, True])
def test_steps_match_single_probes(graphs, name, floor, refs, memo):
    graph = graphs[name]
    kwargs = dict(num_references=refs, memoize_distances=memo)
    lanes, counter = _observe(graph, _lane_floor(floor), **kwargs)
    singles, _ = _observe(graph, NEVER, **kwargs)
    assert lanes == singles
    if memo:
        # Memoising needs whole rows: targets are every vertex, which
        # the planner always serves with single probes.
        assert counter.speculative_lanes == 0


@pytest.mark.parametrize("name,floor", CASES)
@pytest.mark.parametrize("budget", [2, 6, 40])
def test_run_budgeted_matches(graphs, name, floor, budget):
    graph = graphs[name]
    with probe_floor(_lane_floor(floor)):
        lanes = IFECC(graph).run_budgeted(budget)
    with probe_floor(NEVER):
        singles = IFECC(graph).run_budgeted(budget)
    assert lanes.num_bfs == singles.num_bfs
    assert lanes.exact == singles.exact
    assert np.array_equal(lanes.lower, singles.lower)
    assert np.array_equal(lanes.upper, singles.upper)


@pytest.mark.parametrize("name,floor", CASES)
def test_extremes_early_stop_matches(graphs, name, floor):
    graph = graphs[name]
    with probe_floor(_lane_floor(floor)):
        lanes = oracle_radius_and_diameter(BFSOracle(graph))
    with probe_floor(NEVER):
        singles = oracle_radius_and_diameter(BFSOracle(graph))
    assert (lanes.radius, lanes.diameter, lanes.num_bfs) == (
        singles.radius,
        singles.diameter,
        singles.num_bfs,
    )


def _traced(graph, floor):
    sink = MemorySink()
    with probe_floor(floor), tracing(sink):
        solver = IFECC(graph)
        solver.run()
    return deterministic_view(sink.events), solver.counter


def _probe_spans(events):
    """``solver.probe`` span attributes, without the nesting keys."""
    return [
        {k: v for k, v in e.items() if k not in ("seq", "parent")}
        for e in events
        if e["name"] == "solver.probe"
    ]


@pytest.mark.parametrize("name,floor", CASES)
def test_probe_spans_match(graphs, name, floor):
    graph = graphs[name]
    lane_events, _ = _traced(graph, _lane_floor(floor))
    single_events, _ = _traced(graph, NEVER)
    assert _probe_spans(lane_events) == _probe_spans(single_events)


@pytest.mark.parametrize("name,floor", CASES)
def test_speculative_lanes_are_swept_minus_applied(graphs, name, floor):
    events, counter = _traced(graphs[name], _lane_floor(floor))
    swept = sum(e["num_sources"] for e in events if e["name"] == "msbfs.run")
    singles = sum(1 for e in events if e["name"] == "bfs.run")
    applied = sum(1 for e in events if e["name"] == "solver.probe")
    assert swept > 0
    assert counter.bfs_runs == applied
    assert counter.speculative_lanes == swept + singles - applied


class TestProbeBatch:
    def test_columns_match_full_rows(self, graphs):
        graph = graphs["small"]
        engine = MSBFSEngine(graph)
        rng = np.random.default_rng(1)
        n = graph.num_vertices
        for k in (1, 7, 64, 130):
            sources = rng.choice(n, size=k, replace=False)
            targets = rng.choice(n, size=37, replace=False)
            ecc, tdist = engine.probe_batch(sources, targets)
            rows = engine.run_batch(sources)
            assert np.array_equal(tdist, rows[:, targets])
            assert np.array_equal(ecc, rows.max(axis=1))

    def test_no_targets(self, graphs):
        engine = MSBFSEngine(graphs["small"])
        ecc, tdist = engine.probe_batch([0, 1], np.empty(0, np.int64))
        assert tdist.shape == (2, 0)
        assert np.array_equal(ecc, engine.ecc_batch([0, 1]))

    @pytest.mark.parametrize("bad", [-1, "n", "n+5"])
    def test_out_of_range_target_raises(self, graphs, bad):
        graph = graphs["small"]
        n = graph.num_vertices
        target = {"n": n, "n+5": n + 5}.get(bad, bad)
        engine = MSBFSEngine(graph)
        with pytest.raises(InvalidVertexError):
            engine.probe_batch([0, 1], [0, target])
        # Nothing was left behind: the next probe is still exact.
        ecc, tdist = engine.probe_batch([0, 1], [2, 3])
        assert np.array_equal(tdist, engine.run_batch([0, 1])[:, [2, 3]])

    def test_duplicate_targets(self, graphs, traversal_kernel):
        # The C kernel's slot map needs distinct targets and says so;
        # the numpy gather handles duplicates.  Neither returns wrong
        # columns.
        engine = MSBFSEngine(graphs["small"])
        if traversal_kernel == "native":
            with pytest.raises(InvalidParameterError):
                engine.probe_batch([0, 1], [4, 4, 5])
            return
        _ecc, tdist = engine.probe_batch([0, 1], [4, 4, 5])
        assert np.array_equal(tdist, engine.run_batch([0, 1])[:, [4, 4, 5]])

    def test_oracle_rejects_out_of_range_target(self, graphs):
        graph = graphs["small"]
        oracle = BFSOracle(graph)
        with probe_floor(0), pytest.raises(InvalidVertexError):
            oracle.sweep_probes(
                np.arange(8), np.array([0, graph.num_vertices])
            )
