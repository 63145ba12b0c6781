"""Worker span propagation: per-task telemetry merged into one record.

The acceptance scenario for the worker-telemetry merge: a traced
``workers=2`` run must produce a *single* run record whose stream
contains the task spans buffered on the pool threads — valid
``parent`` nesting under the owning ``parallel.batch`` span,
``worker=`` tags on every merged event — with metric counters
bit-identical to the same batch run serially, and the same
deterministic view on every run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.naive import naive_eccentricities
from repro.graph.engine import engine_for
from repro.graph.generators import barabasi_albert
from repro.obs.record import RunRecord
from repro.obs.trace import MemorySink, Tracer, deterministic_view, tracing
from repro.parallel.pool import shutdown_pools


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(300, 3, seed=21)


def _traced_run(graph):
    """One traced workers=2 run, packaged as a record."""
    sink = MemorySink()
    with tracing(sink) as tracer:
        result = naive_eccentricities(graph, workers=2)
        metrics = tracer.metrics.snapshot()
    record = RunRecord.from_run(
        result,
        graph,
        sink.events,
        config={"command": "naive", "workers": 2},
        metrics=metrics,
    )
    return result, record, metrics


@pytest.fixture(scope="module")
def traced_pool_run(graph):
    yield _traced_run(graph)
    shutdown_pools()


def _events_by_seq(record):
    return {
        event["seq"]: event
        for event in record.events
        if isinstance(event.get("seq"), int)
    }


class TestWorkerSpanMerge:
    def test_single_record_contains_worker_spans(self, traced_pool_run):
        _result, record, _metrics = traced_pool_run
        tasks = [
            e for e in record.events if e.get("name") == "parallel.task"
        ]
        assert tasks, "no worker-originated parallel.task spans merged"
        engine_events = [
            e
            for e in record.events
            if e.get("name") in ("bfs.run", "msbfs.run")
        ]
        assert engine_events, "no worker-originated engine events merged"

    def test_worker_tag_on_every_merged_event(self, traced_pool_run):
        _result, record, _metrics = traced_pool_run
        batches = record.batch_events()
        assert len(batches) == 1
        workers_seen = set()
        for event in record.events:
            if event.get("name") in ("parallel.task", "msbfs.run", "bfs.run"):
                assert isinstance(event.get("worker"), int)
                workers_seen.add(event["worker"])
        assert workers_seen <= {0, 1}

    def test_parent_nesting_is_valid(self, traced_pool_run):
        _result, record, _metrics = traced_pool_run
        by_seq = _events_by_seq(record)
        batch_seq = record.batch_events()[0]["seq"]
        for event in record.events:
            parent = event.get("parent")
            if parent is None:
                continue
            # Every parent reference resolves, and the repo's
            # seq-at-creation convention survives the remap: a child's
            # seq is strictly greater than its parent's.
            assert parent in by_seq
            assert event["seq"] > parent
            if event.get("name") == "parallel.task":
                assert parent == batch_seq
            if event.get("name") == "msbfs.run":
                assert by_seq[parent]["name"] == "parallel.task"

    def test_counters_bit_identical_to_serial(self, graph, traced_pool_run):
        _result, _record, pool_metrics = traced_pool_run
        serial_sink = MemorySink()
        with tracing(serial_sink) as tracer:
            engine_for(graph).ecc_batch(
                np.arange(graph.num_vertices, dtype=np.int64)
            )
            serial_metrics = tracer.metrics.snapshot()
        serial_counters = {
            name: data["value"]
            for name, data in serial_metrics.items()
            if data["type"] == "counter"
        }
        pool_counters = {
            name: data["value"]
            for name, data in pool_metrics.items()
            if data["type"] == "counter"
        }
        assert serial_counters, "serial run produced no counters"
        for name, value in serial_counters.items():
            assert pool_counters.get(name) == value, name

    def test_eccentricities_match_serial(self, graph, traced_pool_run):
        result, _record, _metrics = traced_pool_run
        want = engine_for(graph).ecc_batch(
            np.arange(graph.num_vertices, dtype=np.int64)
        )
        assert np.array_equal(result.eccentricities, want)

    def test_record_round_trips_with_worker_events(
        self, traced_pool_run, tmp_path
    ):
        _result, record, _metrics = traced_pool_run
        path = str(tmp_path / "pool_run.jsonl")
        record.write_jsonl(path)
        back = RunRecord.read_jsonl(path)
        assert deterministic_view(back.events) == deterministic_view(
            record.events
        )

    def test_two_runs_share_one_deterministic_view(
        self, graph, traced_pool_run
    ):
        _result, first, _metrics = traced_pool_run
        _result, second, _metrics = _traced_run(graph)
        assert len(first.events) == len(second.events)
        assert deterministic_view(first.events) == deterministic_view(
            second.events
        )

    def test_summarize_batch_section(self, traced_pool_run):
        _result, record, _metrics = traced_pool_run
        text = record.summarize()
        assert "batch work:" in text
        assert "pool dispatches=1" in text
        assert "worker tasks:" in text


class TestEmitForeignUnit:
    """emit_foreign remap semantics on a hand-built worker buffer."""

    def _worker_buffer(self):
        # Simulate a worker stream: span events land in completion
        # order, so the child's event appears *before* the parent span
        # event it references.
        return [
            {"kind": "event", "seq": 2, "parent": 1, "name": "bfs.run",
             "source": 5},
            {"kind": "span", "seq": 1, "parent": None,
             "name": "parallel.task", "task": 0},
        ]

    def test_roots_reparent_and_children_follow(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("parallel.batch") as batch:
            tracer.emit_foreign(
                self._worker_buffer(), parent=batch.seq, worker=1
            )
        events = {e["name"]: e for e in sink.events}
        task = events["parallel.task"]
        child = events["bfs.run"]
        assert task["parent"] == batch.seq
        assert child["parent"] == task["seq"]
        assert task["worker"] == 1 and child["worker"] == 1

    def test_creation_order_seq_allocation(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.emit_foreign(self._worker_buffer(), parent=None, worker=0)
        events = {e["name"]: e for e in sink.events}
        # Old seq 1 (the task span, created first) must map to a lower
        # new seq than old seq 2, whatever order the buffer replays in.
        assert events["parallel.task"]["seq"] < events["bfs.run"]["seq"]

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer()
        assert tracer.emit_foreign(self._worker_buffer(), parent=None) == []
