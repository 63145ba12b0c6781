"""Property: worker count never changes results (workers=1 ≡ workers=4).

Chunking policy depends on the worker count, so these properties drive
the pools with hypothesis-drawn source lists (duplicates, reorderings,
empty) and demand bitwise-equal outputs — the parallel analogue of the
engine's "direction changes speed, never answers" contract.  Each runs
on both traversal kernels (see ``tests/conftest.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_connected_graph
from repro.graph.msbfs import multi_source_distances
from repro.parallel.pool import TraversalPool

_N = 180


@pytest.fixture(scope="module")
def graph():
    return random_connected_graph(_N, extra_edges=120, seed=77)


@pytest.fixture(scope="module")
def pools(graph):
    solo = TraversalPool(graph, workers=1)
    quad = TraversalPool(graph, workers=4)
    yield solo, quad
    solo.close()
    quad.close()


sources_strategy = st.lists(
    st.integers(min_value=0, max_value=_N - 1), min_size=0, max_size=40
)


@settings(max_examples=20, deadline=None)
@given(sources=sources_strategy)
def test_eccentricities_independent_of_worker_count(pools, sources):
    solo, quad = pools
    src = np.asarray(sources, dtype=np.int64)
    assert np.array_equal(
        solo.eccentricities(src), quad.eccentricities(src)
    )


@settings(max_examples=10, deadline=None)
@given(sources=st.lists(
    st.integers(min_value=0, max_value=_N - 1), min_size=1, max_size=8
))
def test_distance_rows_independent_of_worker_count(pools, sources):
    solo, quad = pools
    assert np.array_equal(
        solo.distance_rows(sources), quad.distance_rows(sources)
    )


@settings(max_examples=10, deadline=None)
@given(sources=st.lists(
    st.integers(min_value=0, max_value=_N - 1), min_size=0, max_size=100
))
def test_msbfs_independent_of_worker_count(graph, sources):
    src = np.asarray(sources, dtype=np.int64)
    assert np.array_equal(
        multi_source_distances(graph, src, workers=1),
        multi_source_distances(graph, src, workers=4),
    )
