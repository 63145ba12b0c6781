"""TraversalPool dispatch, equivalence, lifecycle, and leak-freedom."""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.counters import TraversalCounter
from repro.errors import (
    InvalidParameterError,
    InvalidVertexError,
    ParallelBackendError,
)
from repro.graph.engine import engine_for
from repro.graph.generators import barabasi_albert
from repro.graph.msbfs import msbfs_eccentricities, multi_source_distances
from repro.obs.trace import deterministic_view, tracing, MemorySink
from repro.parallel.pool import (
    TraversalPool,
    pool_for,
    resolve_workers,
    shutdown_pools,
)


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(300, 3, seed=21)


@pytest.fixture(scope="module")
def pool(graph):
    pool = TraversalPool(graph, workers=2)
    yield pool
    pool.close()


class TestEquivalence:
    def test_eccentricities_match_engine(self, graph, pool):
        want = engine_for(graph).ecc_batch(
            np.arange(graph.num_vertices, dtype=np.int64)
        )
        got = pool.eccentricities()
        assert np.array_equal(got, want)
        assert got.dtype == np.int32

    def test_subset_sources_preserve_order(self, graph, pool):
        sources = np.asarray([17, 3, 250, 3, 0], dtype=np.int64)
        engine = engine_for(graph)
        want = engine.ecc_batch(sources)
        assert np.array_equal(pool.eccentricities(sources), want)

    def test_distance_rows_match_engine(self, graph, pool):
        sources = [5, 99, 0]
        engine = engine_for(graph)
        want = np.stack(
            [engine.run(s).copy() for s in sources]
        )
        assert np.array_equal(pool.distance_rows(sources), want)

    def test_distance_rows_into_preallocated_out(self, graph, pool):
        sources = [1, 2]
        out = np.zeros((2, graph.num_vertices), dtype=np.int32)
        returned = pool.distance_rows(sources, out=out)
        assert returned is out
        assert np.array_equal(out[0], engine_for(graph).run(1).copy())

    def test_msbfs_rows_match_inprocess(self, graph, pool):
        sources = np.arange(150, dtype=np.int64)
        want = multi_source_distances(graph, sources)
        assert np.array_equal(pool.distance_rows(sources), want)
        assert np.array_equal(
            multi_source_distances(graph, sources, workers=2), want
        )

    def test_msbfs_eccentricities_match_inprocess(self, graph, pool):
        want = msbfs_eccentricities(graph)
        assert np.array_equal(pool.eccentricities(), want)
        assert np.array_equal(msbfs_eccentricities(graph, workers=2), want)

    def test_counter_totals_match_serial(self, graph, pool):
        serial = TraversalCounter()
        engine_for(graph).ecc_batch(
            np.arange(graph.num_vertices, dtype=np.int64), counter=serial
        )
        merged = TraversalCounter()
        pool.eccentricities(counter=merged)
        assert merged.bfs_runs == serial.bfs_runs
        assert merged.edges_scanned == serial.edges_scanned
        assert merged.edges_inspected == serial.edges_inspected

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bit_identical_to_serial(self, graph, workers):
        # Threads are not cores: the same tasks run whatever the host.
        everyone = np.arange(graph.num_vertices, dtype=np.int64)
        rows_sources = [5, 0, 5, 99] + list(range(100, 300))
        serial_ecc, threaded_ecc = TraversalCounter(), TraversalCounter()
        serial_rows, threaded_rows = TraversalCounter(), TraversalCounter()
        want_ecc = engine_for(graph).ecc_batch(everyone, counter=serial_ecc)
        want_rows = multi_source_distances(
            graph, rows_sources, counter=serial_rows
        )
        pool = TraversalPool(graph, workers=workers)
        got_ecc = pool.eccentricities(counter=threaded_ecc)
        got_rows = pool.distance_rows(rows_sources, counter=threaded_rows)
        assert np.array_equal(got_ecc, want_ecc)
        assert np.array_equal(got_rows, want_rows)
        assert threaded_ecc == serial_ecc
        assert threaded_rows == serial_rows

    def test_many_threads_lose_no_update(self, graph):
        # More threads than cores, switching as often as the interpreter
        # allows: a lost result slot or counter merge would show here.
        serial = TraversalCounter()
        want = engine_for(graph).ecc_batch(
            np.arange(graph.num_vertices, dtype=np.int64), counter=serial
        )
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = TraversalPool(graph, workers=8)
            for _ in range(5):
                merged = TraversalCounter()
                assert np.array_equal(pool.eccentricities(counter=merged), want)
                assert merged == serial
        finally:
            sys.setswitchinterval(previous)

    def test_empty_sources(self, pool):
        assert pool.eccentricities([]).shape == (0,)
        assert pool.distance_rows([]).shape == (0, pool.num_vertices)


class TestValidation:
    def test_invalid_vertex_raises_in_parent(self, pool):
        with pytest.raises(InvalidVertexError):
            pool.eccentricities([0, pool.num_vertices])

    def test_unknown_kind_propagates_worker_error(self, pool):
        with pytest.raises(ParallelBackendError, match="bogus"):
            pool._dispatch(
                "bogus", np.arange(3, dtype=np.int64), (), "int32", None
            )

    def test_pool_survives_worker_error(self, graph, pool):
        # After a failed dispatch the workers are still serving.
        with pytest.raises(ParallelBackendError):
            pool._dispatch(
                "bogus", np.arange(3, dtype=np.int64), (), "int32", None
            )
        want = engine_for(graph).ecc_batch(np.asarray([1, 2], dtype=np.int64))
        assert np.array_equal(pool.eccentricities([1, 2]), want)

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(InvalidParameterError):
            resolve_workers(0)


class TestObservability:
    def test_batch_span_emitted(self, graph, pool):
        sink = MemorySink()
        with tracing(sink):
            pool.eccentricities([0, 1, 2, 3, 4])
        spans = [
            e for e in sink.events if e.get("name") == "parallel.batch"
        ]
        assert len(spans) == 1
        span = spans[0]
        assert span["kind"] == "ecc"
        assert span["workers"] == 2
        assert span["num_sources"] == 5
        assert sum(span["chunks"]) == 5
        assert span["tasks"] == len(span["chunks"])
        assert span["traversals"] == 5
        assert isinstance(span["worker_seconds"], dict)

    def test_worker_seconds_stripped_from_deterministic_view(
        self, graph, pool
    ):
        sink = MemorySink()
        with tracing(sink):
            pool.eccentricities([0, 1])
        view = deterministic_view(sink.events)
        for event in view:
            assert "worker_seconds" not in event
            assert "dur" not in event


class TestLifecycle:
    def test_close_is_idempotent(self, graph):
        pool = TraversalPool(graph, workers=1)
        pool.close()
        pool.close()
        assert pool.closed

    def test_dispatch_after_close_raises(self, graph):
        pool = TraversalPool(graph, workers=1)
        pool.close()
        with pytest.raises(ParallelBackendError, match="closed"):
            pool.eccentricities([0])

    def test_no_leaked_segments_or_workers_after_gc(self, graph):
        # Worker threads live for one dispatch; the pool pins nothing.
        pool = TraversalPool(graph, workers=2)
        pool.eccentricities()
        assert not [
            thread
            for thread in threading.enumerate()
            if thread.name.startswith("repro-traversal-")
        ]

    def test_pool_does_not_keep_its_graph_alive(self):
        graph = barabasi_albert(60, 2, seed=3)
        pool = pool_for(graph, workers=2)
        ref = weakref.ref(graph)
        del graph
        gc.collect()
        assert ref() is None
        with pytest.raises(ParallelBackendError, match="no longer exists"):
            pool.eccentricities([0])

    def test_pool_for_caches_per_graph(self, graph):
        first = pool_for(graph, workers=1)
        try:
            assert pool_for(graph) is first
            assert pool_for(graph, workers=1) is first
            replaced = pool_for(graph, workers=2)
            assert replaced is not first
            assert first.closed
        finally:
            shutdown_pools()

    def test_shutdown_pools_closes_registry(self, graph):
        pool = pool_for(graph, workers=1)
        shutdown_pools()
        assert pool.closed

    def test_context_manager(self, graph):
        with TraversalPool(graph, workers=1) as pool:
            assert pool.eccentricities([0]).shape == (1,)
        assert pool.closed

