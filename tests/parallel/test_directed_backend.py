"""Directed traversals on pool threads ≡ the serial oracle, bit for bit.

The pool's threads read both CSR directions of the caller's digraph,
so forward/backward traversals, probe pairs, and full
directed-eccentricity sweeps must agree exactly with ``workers=1`` —
including counter totals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.counters import TraversalCounter
from repro.directed.eccentricity import (
    directed_eccentricities,
    directed_ifecc_eccentricities,
    naive_directed_eccentricities,
)
from repro.directed.graph import DirectedGraph
from repro.directed.traversal import DirectedBFSOracle, backward_bfs, forward_bfs
from repro.errors import (
    DisconnectedGraphError,
    InvalidParameterError,
    ParallelBackendError,
)
from repro.parallel.pool import TraversalPool, shutdown_pools

_N = 150


def _strongly_connected_graph(n=_N, chords=220, seed=5):
    """Directed ring (guarantees strong connectivity) + random chords."""
    rng = np.random.default_rng(seed)
    arcs = [(i, (i + 1) % n) for i in range(n)]
    arcs += [
        (int(a), int(b))
        for a, b in rng.integers(0, n, size=(chords, 2))
        if a != b
    ]
    return DirectedGraph.from_arcs(arcs, num_vertices=n)


@pytest.fixture(scope="module")
def graph():
    return _strongly_connected_graph()


@pytest.fixture(scope="module")
def pool(graph):
    pool = TraversalPool(graph, workers=2)
    yield pool
    pool.close()


@pytest.fixture(autouse=True, scope="module")
def _teardown_module_pools():
    yield
    shutdown_pools()


class TestPoolDirectedEntryPoints:
    def test_directed_eccentricities_match_serial(self, graph, pool):
        serial = np.asarray(
            [int(forward_bfs(graph, v).max()) for v in range(_N)],
            dtype=np.int32,
        )
        assert np.array_equal(pool.directed_eccentricities(), serial)

    def test_distance_rows_both_directions(self, graph, pool):
        src = [3, 77, 0, 149, 77]
        fwd = pool.directed_distance_rows(src, direction="forward")
        bwd = pool.directed_distance_rows(src, direction="backward")
        for i, s in enumerate(src):
            assert np.array_equal(fwd[i], forward_bfs(graph, s))
            assert np.array_equal(bwd[i], backward_bfs(graph, s))

    def test_bad_direction_rejected(self, pool):
        with pytest.raises(InvalidParameterError):
            pool.directed_distance_rows([0], direction="sideways")

    def test_probe_pair(self, graph, pool):
        rows = pool.directed_probe_pair(42)
        assert rows.shape == (2, _N)
        assert np.array_equal(rows[0], forward_bfs(graph, 42))
        assert np.array_equal(rows[1], backward_bfs(graph, 42))

    def test_counter_totals_match_serial(self, graph, pool):
        serial = TraversalCounter()
        for v in range(_N):
            forward_bfs(graph, v, counter=serial)
        pooled = TraversalCounter()
        pool.directed_eccentricities(counter=pooled)
        assert pooled.bfs_runs == serial.bfs_runs
        assert pooled.edges_scanned == serial.edges_scanned

    def test_undirected_pool_rejects_directed_entry_points(self):
        from helpers import random_connected_graph

        undirected = TraversalPool(
            random_connected_graph(30, extra_edges=10, seed=1), workers=1
        )
        try:
            with pytest.raises(ParallelBackendError):
                undirected.directed_eccentricities()
        finally:
            undirected.close()


class TestOracleBackend:
    def test_backend_validated(self, graph):
        with pytest.raises(TypeError):
            DirectedBFSOracle(graph, backend="process")
        with pytest.raises(InvalidParameterError):
            DirectedBFSOracle(graph, workers=0)

    def test_ecc_all_matches_numpy(self, graph):
        serial_ecc = DirectedBFSOracle(graph).ecc_all()
        oracle = DirectedBFSOracle(graph, workers=2)
        try:
            assert np.array_equal(oracle.ecc_all(), serial_ecc)
        finally:
            oracle.pool.close()

    def test_source_probe_matches_numpy(self, graph):
        base = DirectedBFSOracle(graph)
        oracle = DirectedBFSOracle(graph, workers=2)
        try:
            for source in (0, 9, 148):
                ecc_n, fwd_n, bwd_n = base.source_probe(source)
                ecc_p, fwd_p, bwd_p = oracle.source_probe(source)
                assert ecc_n == ecc_p
                assert np.array_equal(fwd_n, fwd_p)
                assert np.array_equal(bwd_n, bwd_p)
        finally:
            oracle.pool.close()

    def test_ecc_all_raises_on_weakly_connected(self):
        # A one-way path is weakly but not strongly connected: the
        # -1 sentinel from the pool must surface as the same error the
        # serial path raises.
        graph = DirectedGraph.from_arcs([(0, 1), (1, 2)], num_vertices=3)
        with pytest.raises(DisconnectedGraphError):
            DirectedBFSOracle(graph).ecc_all()
        oracle = DirectedBFSOracle(graph, workers=2)
        try:
            with pytest.raises(DisconnectedGraphError):
                oracle.ecc_all()
        finally:
            oracle.pool.close()


class TestAlgorithmsAcrossBackends:
    def test_naive_matches(self, graph):
        assert np.array_equal(
            naive_directed_eccentricities(graph),
            naive_directed_eccentricities(graph, workers=2),
        )

    def test_bound_propagation_matches_and_tags(self, graph):
        serial = directed_eccentricities(graph)
        pooled = directed_eccentricities(graph, workers=2)
        assert np.array_equal(
            serial.eccentricities, pooled.eccentricities
        )
        assert serial.algorithm == "DirectedECC"
        assert pooled.algorithm == "DirectedECC(threads x2)"
        assert serial.num_bfs == pooled.num_bfs

    def test_ifecc_matches_and_tags(self, graph):
        serial = directed_ifecc_eccentricities(graph)
        pooled = directed_ifecc_eccentricities(graph, workers=2)
        assert np.array_equal(
            serial.eccentricities, pooled.eccentricities
        )
        assert pooled.algorithm == "DirectedIFECC(threads x2)"
        assert serial.num_bfs == pooled.num_bfs
