"""Unit tests for the direction-optimizing MS-BFS engine.

The engine's contract is the repo-wide one: lane packing and direction
choice change speed, never answers.  Every test therefore compares
against the single-source hybrid engine (itself pinned against the seed
kernel in test_engine.py) or the plain traversal reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import random_connected_graph
from repro.counters import TraversalCounter
from repro.errors import InvalidParameterError, InvalidVertexError
from repro.graph.builder import GraphBuilder
from repro.graph.engine import BFSEngine
from repro.graph.generators import paper_example_graph, star_graph
from repro.graph.msengine import (
    LANE_WORD_BITS,
    MAX_LANE_WORDS,
    MSBFSEngine,
    batch_distance_rows,
    msengine_for,
    plan_lane_width,
)
from repro.obs.trace import MemorySink, tracing
from repro.sentinels import UNREACHED


@pytest.fixture(scope="module")
def graph():
    return random_connected_graph(300, extra_edges=260, seed=11)


@pytest.fixture(scope="module")
def reference_rows(graph):
    engine = BFSEngine(graph)
    return np.stack(
        [engine.run(v).copy() for v in range(graph.num_vertices)]
    )


def _sources(graph, count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.choice(
        graph.num_vertices, size=count, replace=False
    ).astype(np.int64)


class TestRunBatch:
    @pytest.mark.parametrize("mode", ["hybrid", "top-down", "bottom-up"])
    def test_rows_match_single_source_engine(
        self, graph, reference_rows, mode
    ):
        src = _sources(graph, 64)
        rows = MSBFSEngine(graph).run_batch(src, mode=mode)
        assert rows.dtype == np.int32
        assert np.array_equal(rows, reference_rows[src])

    @pytest.mark.parametrize("count", [1, 7, 64, 65, 128, 129, 256])
    def test_every_lane_width(self, graph, reference_rows, count):
        src = _sources(graph, count, seed=count)
        rows = MSBFSEngine(graph).run_batch(src)
        assert np.array_equal(rows, reference_rows[src])

    def test_limit_truncates_like_the_serial_engine(self, graph):
        src = _sources(graph, 70, seed=3)
        engine = BFSEngine(graph)
        for limit in (0, 1, 2, 5):
            rows = MSBFSEngine(graph).run_batch(src, limit=limit)
            for i, s in enumerate(src):
                assert np.array_equal(
                    rows[i], engine.run(int(s), limit=limit)
                ), (limit, s)

    def test_disconnected_vertices_stay_unreached(self):
        builder = GraphBuilder(num_vertices=6)
        builder.add_edge(0, 1)
        builder.add_edge(1, 2)
        builder.add_edge(3, 4)  # second component; vertex 5 isolated
        graph = builder.build()
        rows = MSBFSEngine(graph).run_batch(np.arange(6))
        assert rows[0, 3] == UNREACHED and rows[0, 5] == UNREACHED
        assert rows[5, 5] == 0 and np.all(rows[5, :5] == UNREACHED)

    def test_empty_batch(self, graph):
        rows = MSBFSEngine(graph).run_batch(np.empty(0, dtype=np.int64))
        assert rows.shape == (0, graph.num_vertices)

    def test_counter_credits_k_runs_for_one_sweep(self, graph):
        src = _sources(graph, 40)
        counter = TraversalCounter()
        MSBFSEngine(graph).run_batch(src, counter=counter)
        assert counter.bfs_runs == 40


class TestEccBatch:
    @pytest.mark.parametrize("mode", ["hybrid", "top-down"])
    def test_matches_rows_reduction(self, graph, reference_rows, mode):
        src = _sources(graph, 130, seed=5)
        ecc = MSBFSEngine(graph).ecc_batch(src, mode=mode)
        expected = reference_rows[src].max(axis=1).astype(np.int32)
        assert np.array_equal(ecc, expected)

    def test_paper_example(self):
        graph = paper_example_graph()
        ecc = MSBFSEngine(graph).ecc_batch(
            np.arange(graph.num_vertices)
        )
        loop = BFSEngine(graph)
        for v in range(graph.num_vertices):
            loop.run(v)
            assert ecc[v] == loop.last_ecc


class TestValidation:
    def test_too_many_sources(self, graph):
        limit = MAX_LANE_WORDS * LANE_WORD_BITS
        with pytest.raises(InvalidParameterError, match=str(limit)):
            MSBFSEngine(graph).run_batch(
                np.zeros(limit + 1, dtype=np.int64)
            )

    def test_bad_mode(self, graph):
        with pytest.raises(InvalidParameterError, match="mode"):
            MSBFSEngine(graph).run_batch([0], mode="sideways")

    def test_negative_limit(self, graph):
        with pytest.raises(InvalidParameterError, match="limit"):
            MSBFSEngine(graph).run_batch([0], limit=-1)

    def test_bad_vertex(self, graph):
        with pytest.raises(InvalidVertexError):
            MSBFSEngine(graph).run_batch([0, graph.num_vertices])
        with pytest.raises(InvalidVertexError):
            MSBFSEngine(graph).run_batch([-1])

    def test_bad_alpha_beta(self, graph):
        with pytest.raises(InvalidParameterError):
            MSBFSEngine(graph, alpha=0.0)
        with pytest.raises(InvalidParameterError):
            MSBFSEngine(graph, beta=-1.0)


class TestPlanner:
    def test_small_batches_stay_serial(self):
        assert plan_lane_width(400_000, 1) == 0
        assert plan_lane_width(400_000, 7) == 0
        assert plan_lane_width(400_000, 23) == 0

    def test_edgeless_graphs_stay_serial(self):
        assert plan_lane_width(0, 64) == 0

    def test_single_word_default(self):
        assert plan_lane_width(4_000, 24) == 64
        assert plan_lane_width(4_000, 127) == 64

    def test_multi_word_thresholds(self):
        # The widest lane group the batch fills, on any graph size.
        assert plan_lane_width(4_000, 128) == 128
        assert plan_lane_width(16_384, 255) == 128
        assert plan_lane_width(4_000, 256) == 256


class TestStatsAndObservability:
    def test_lane_retirement_on_star(self):
        # On a star every leaf lane saturates at level 2 but the sweep
        # runs while any lane lives; live_lanes must never grow.
        graph = star_graph(500)
        engine = MSBFSEngine(graph)
        engine.ecc_batch(np.arange(64, dtype=np.int64))
        stats = engine.last_stats
        assert stats.num_sources == 64
        assert stats.lane_words == 1
        assert stats.levels == len(stats.directions)
        assert all(
            a >= b
            for a, b in zip(stats.live_lanes, stats.live_lanes[1:])
        )
        assert stats.live_lanes[0] <= 64

    def test_hybrid_switches_direction_on_dense_graph(self, graph):
        engine = MSBFSEngine(graph)
        engine.ecc_batch(_sources(graph, 64))
        assert "bu" in engine.last_stats.directions
        assert (
            engine.last_stats.edges_inspected
            >= engine.last_stats.edges_scanned
        )

    def test_run_event_and_metrics(self, graph):
        sink = MemorySink()
        with tracing(sink) as tracer:
            MSBFSEngine(graph).run_batch(_sources(graph, 65))
            snapshot = tracer.metrics.snapshot()
        events = [
            e for e in sink.events if e.get("name") == "msbfs.run"
        ]
        assert len(events) == 1
        event = events[0]
        assert event["num_sources"] == 65
        assert event["lane_words"] == 2
        assert event["mode"] == "hybrid"
        assert event["levels"] == len(event["directions"])
        assert snapshot["msbfs.runs"]["value"] == 1
        assert snapshot["msbfs.sources"]["value"] == 65
        assert snapshot["msbfs.words_touched"]["value"] > 0


class TestBatchDistanceRows:
    def test_duplicates_share_one_sweep(self, graph, reference_rows):
        src = np.asarray([5, 17, 5, 42, 17, 5], dtype=np.int64)
        counter = TraversalCounter()
        rows = batch_distance_rows(graph, src, counter=counter)
        assert np.array_equal(rows, reference_rows[src])
        # Six requested rows, three distinct traversals credited as six
        # (duplicates replay a computed lane, still one run each).
        assert counter.bfs_runs == 6

    def test_serial_fallback_below_lane_threshold(
        self, graph, reference_rows
    ):
        src = np.asarray([3, 250], dtype=np.int64)
        rows = batch_distance_rows(graph, src)
        assert np.array_equal(rows, reference_rows[src])

    def test_out_buffer_is_filled_in_place(self, graph, reference_rows):
        src = _sources(graph, 16, seed=9)
        out = np.empty((16, graph.num_vertices), dtype=np.int32)
        got = batch_distance_rows(graph, src, out=out)
        assert got is out
        assert np.array_equal(out, reference_rows[src])


class TestEngineCache:
    def test_msengine_for_is_cached_per_graph(self, graph):
        assert msengine_for(graph) is msengine_for(graph)
        other = random_connected_graph(10, extra_edges=2, seed=1)
        assert msengine_for(other) is not msengine_for(graph)
