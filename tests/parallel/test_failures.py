"""A task that raises fails its batch, not the pool.

The failure must surface in the calling thread as a typed
:class:`ParallelBackendError` carrying the task's traceback, and the
next batch — from the same pool or a fresh ``pool_for`` — must run
normally.  Nothing here depends on the host's core count or on timing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.naive import naive_eccentricities
from repro.errors import ParallelBackendError
from repro.graph.generators import barabasi_albert
from repro.graph.msengine import MSBFSEngine
from repro.parallel.pool import pool_for, shutdown_pools


def test_raising_task_fails_the_batch_then_pool_for_works(monkeypatch):
    graph = barabasi_albert(300, 3, seed=31)
    want = naive_eccentricities(graph).eccentricities

    def broken(self, sources, counter=None, mode="hybrid"):
        raise RuntimeError("injected sweep failure")

    try:
        with monkeypatch.context() as patch:
            patch.setattr(MSBFSEngine, "ecc_batch", broken)
            with pytest.raises(ParallelBackendError) as failure:
                pool_for(graph, workers=2).eccentricities()
        message = str(failure.value)
        assert "injected sweep failure" in message
        assert "Traceback (most recent call last)" in message
        assert "in broken" in message  # the raising frame

        got = pool_for(graph, workers=2).eccentricities()
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    finally:
        shutdown_pools()
