"""Lane probes on the 8 large Table-3 stand-ins match single probes.

The stand-ins are the graphs the probe-lane planner was tuned on (all
above its vertex floor), so every one of them sweeps lanes under the
default planner.  Eccentricities, bounds, ``num_bfs`` and every
``steps()`` snapshot must equal the run with lanes switched off.  The
numpy kernel is covered on generated graphs by
``tests/core/test_lane_probes.py``.
"""

from __future__ import annotations

import pytest

from repro.core.ifecc import IFECC
from repro.datasets.loader import build_standin
from repro.datasets.registry import dataset_names, get_spec
from repro.graph import msengine
from repro.obs.trace import MemorySink, tracing


def _observe(graph):
    """The run's observables and how many lane sweeps it made."""
    sink = MemorySink()
    with tracing(sink):
        solver = IFECC(graph)
        snaps = [(s.bfs_runs, s.source, s.resolved) for s in solver.steps()]
    observed = (
        snaps,
        solver.bounds.eccentricities().tolist(),
        solver.bounds.upper.tolist(),
        solver.counter.bfs_runs,
    )
    return observed, sum(1 for e in sink.events if e["name"] == "msbfs.run")


@pytest.mark.parametrize("name", dataset_names("large"))
def test_standin_lanes_match_single_probes(name, monkeypatch):
    graph = build_standin(get_spec(name))
    assert graph.num_vertices >= msengine._PROBE_MIN_VERTICES
    lanes, sweeps = _observe(graph)
    assert sweeps > 0
    monkeypatch.setattr(msengine, "_PROBE_MIN_VERTICES", 1 << 62)
    singles, sweeps = _observe(graph)
    assert sweeps == 0
    assert lanes == singles
