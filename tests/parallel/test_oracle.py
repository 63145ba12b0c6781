"""The oracles' ``workers`` knob: golden-corpus equivalence and plumbing.

The golden file captured from the seed implementation
(``tests/data/golden_ifecc.json``) pins IFECC's observable behaviour;
running the same corpus with ``workers=2`` must reproduce it bit for
bit — the thread count changes where batches execute, never answers.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from core.test_solver_equivalence import GOLDEN_PATH, build_corpus
from repro.core.ifecc import IFECC
from repro.core.kifecc import approximate_eccentricities
from repro.core.oracles import BFSOracle
from repro.counters import TraversalCounter
from repro.errors import InvalidParameterError
from repro.parallel import pool_for, shutdown_pools


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_pools()


@pytest.mark.parametrize("name", sorted(build_corpus()))
def test_ifecc_golden_with_process_backend(name, golden):
    graph = build_corpus()[name]
    counter = TraversalCounter()
    engine = IFECC(
        graph, num_references=1, counter=counter, workers=2,
    )
    for _ in engine.steps():
        pass
    want = golden[name]["r1_memo0"]
    assert engine.bounds.eccentricities().tolist() == want["ecc"]
    assert counter.bfs_runs == want["num_bfs"]
    assert counter.edges_scanned == want["edges_scanned"]


@pytest.mark.parametrize("name", sorted(build_corpus()))
def test_kifecc_golden_with_process_backend(name, golden):
    graph = build_corpus()[name]
    result = approximate_eccentricities(graph, k=5, workers=2)
    want = golden[name]["kifecc_k5"]
    assert result.eccentricities.tolist() == want["est"]
    assert result.num_bfs == want["num_bfs"]
    assert bool(result.exact) == want["exact"]


class TestBatchedEntryPoints:
    def test_ecc_all_matches_numpy_backend(self):
        graph = build_corpus()["ba150"]
        serial_oracle = BFSOracle(graph)
        threaded_oracle = BFSOracle(graph, workers=2)
        assert np.array_equal(
            threaded_oracle.ecc_all(), serial_oracle.ecc_all()
        )

    def test_distance_rows_match_numpy_backend(self):
        graph = build_corpus()["ws120"]
        serial_oracle = BFSOracle(graph)
        threaded_oracle = BFSOracle(graph, workers=2)
        sources = [0, 7, 101]
        assert np.array_equal(
            threaded_oracle.distance_rows(sources),
            serial_oracle.distance_rows(sources),
        )

    def test_single_probes_stay_sequential(self, monkeypatch):
        # source/sweep probes must not touch the pool at all.
        graph = build_corpus()["paper"]
        oracle = BFSOracle(graph, workers=2)
        monkeypatch.setattr(
            "repro.core.oracles.pool_for", _no_pool, raising=True
        )
        ecc, dist, rdist = oracle.source_probe(0)
        everyone = np.arange(graph.num_vertices)
        sweep_ecc, rows = oracle.sweep_probes(np.array([0]), everyone)
        assert sweep_ecc == [ecc]
        assert np.array_equal(rows[0], dist)
        assert dist is rdist

    def test_close_then_reuse_rebuilds_pool(self):
        graph = build_corpus()["paper"]
        oracle = BFSOracle(graph, workers=2)
        first = oracle.ecc_all()
        oracle.pool.close()
        assert np.array_equal(oracle.ecc_all(), first)
        assert not oracle.pool.closed


class TestBackendFlag:
    def test_unknown_backend_rejected(self):
        # `workers` alone picks the execution; no `backend` is accepted.
        graph = build_corpus()["paper"]
        with pytest.raises(TypeError, match="backend"):
            BFSOracle(graph, backend="process")
        with pytest.raises(InvalidParameterError, match="workers"):
            BFSOracle(graph, workers=0)

    def test_pool_property_requires_process_backend(self):
        graph = build_corpus()["paper"]
        with pytest.raises(InvalidParameterError):
            BFSOracle(graph).pool
        assert BFSOracle(graph, workers=2).pool is pool_for(graph)

    def test_numpy_backend_never_imports_parallel_pool(self, monkeypatch):
        # The default workers=1 runs batches in the calling thread.
        graph = build_corpus()["paper"]
        oracle = BFSOracle(graph)
        assert oracle.workers == 1
        monkeypatch.setattr(
            "repro.core.oracles.pool_for", _no_pool, raising=True
        )
        assert np.array_equal(
            oracle.ecc_all([0, 1]),
            oracle.engine.ecc_batch(np.asarray([0, 1], dtype=np.int64)),
        )
        assert oracle.distance_rows([0, 1]).shape == (2, graph.num_vertices)


def _no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was requested")
