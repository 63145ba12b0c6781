"""Unit tests for eccentricity bound maintenance (Lemmas 3.1 / 3.3)."""

import numpy as np
import pytest

from repro.core.bounds import (
    INFINITE_ECC,
    BoundState,
    lemma31_lower,
    lemma31_upper,
)
from repro.errors import InvalidParameterError
from repro.graph.generators import path_graph
from repro.graph.properties import exact_eccentricities
from repro.graph.traversal import bfs_distances


class TestInitialState:
    def test_initial_bounds(self):
        state = BoundState(4)
        assert np.all(state.lower == 0)
        assert np.all(state.upper == INFINITE_ECC)

    def test_nothing_resolved_initially(self):
        assert BoundState(3).num_resolved() == 0

    def test_zero_vertices(self):
        state = BoundState(0)
        assert state.all_resolved()
        assert state.eccentricities().tolist() == []

    def test_negative_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            BoundState(-1)


class TestLemma31Helpers:
    def test_lower_formula(self):
        dist = np.array([0, 1, 2, 3], dtype=np.int32)
        np.testing.assert_array_equal(
            lemma31_lower(dist, 3), [3, 2, 2, 3]
        )

    def test_upper_formula(self):
        dist = np.array([0, 1, 2], dtype=np.int32)
        np.testing.assert_array_equal(lemma31_upper(dist, 4), [4, 5, 6])


class TestApplyLemma31:
    def test_bounds_sandwich_truth(self):
        g = path_graph(6)
        truth = exact_eccentricities(g)
        state = BoundState(6)
        for t in (0, 3, 5):
            dist = bfs_distances(g, t)
            state.apply_lemma31(dist, int(truth[t]))
            assert np.all(state.lower <= truth)
            assert np.all(state.upper >= truth)

    def test_resolves_after_informative_sources(self):
        g = path_graph(5)
        truth = exact_eccentricities(g)
        state = BoundState(5)
        for t in range(5):
            state.apply_lemma31(bfs_distances(g, t), int(truth[t]))
            state.set_exact(t, int(truth[t]))
        assert state.all_resolved()
        np.testing.assert_array_equal(state.eccentricities(), truth)

    def test_unreachable_entries_untouched(self):
        state = BoundState(3)
        dist = np.array([0, 1, -1], dtype=np.int32)
        state.apply_lemma31(dist, 1)
        assert state.upper[2] == INFINITE_ECC
        assert state.lower[2] == 0

    def test_updates_monotone(self):
        g = path_graph(6)
        truth = exact_eccentricities(g)
        state = BoundState(6)
        prev_lower = state.lower.copy()
        prev_upper = state.upper.copy()
        for t in (2, 0, 4):
            state.apply_lemma31(bfs_distances(g, t), int(truth[t]))
            assert np.all(state.lower >= prev_lower)
            assert np.all(state.upper <= prev_upper)
            prev_lower = state.lower.copy()
            prev_upper = state.upper.copy()

    def test_inconsistent_distances_detected(self):
        state = BoundState(2)
        state.apply_lemma31(np.array([0, 1], dtype=np.int32), 1)
        # feeding an absurd ecc for the same source must trip the check
        with pytest.raises(InvalidParameterError):
            state.apply_lemma31(np.array([0, 1], dtype=np.int32), 100)


class TestApplyLowerOnly:
    def test_raises_lower(self):
        state = BoundState(3)
        state.apply_lower_only(np.array([0, 2, 5], dtype=np.int32))
        assert state.lower.tolist() == [0, 2, 5]

    def test_never_decreases(self):
        state = BoundState(2)
        state.apply_lower_only(np.array([4, 4], dtype=np.int32))
        state.apply_lower_only(np.array([1, 1], dtype=np.int32))
        assert state.lower.tolist() == [4, 4]


class TestLemma33Tail:
    def test_caps_upper(self):
        state = BoundState(3)
        dist_z = np.array([0, 1, 2], dtype=np.int32)
        state.apply_lemma33_tail(dist_z, tail_radius=2)
        assert state.upper.tolist() == [2, 3, 4]

    def test_never_below_lower(self):
        state = BoundState(2)
        # reprolint: disable=R2 (forcing internal state for the error path)
        state.lower = np.array([5, 5], dtype=np.int32)
        state.apply_lemma33_tail(
            np.array([0, 0], dtype=np.int32), tail_radius=1
        )
        assert np.all(state.upper >= state.lower)

    def test_subset_restriction(self):
        state = BoundState(4)
        dist_z = np.array([0, 1, 2, 3], dtype=np.int32)
        state.apply_lemma33_tail(
            dist_z, tail_radius=1, subset=np.array([1, 3])
        )
        assert state.upper[0] == INFINITE_ECC
        assert state.upper[2] == INFINITE_ECC
        assert state.upper[1] == 2
        assert state.upper[3] == 4


class TestSetExact:
    def test_pins_value(self):
        state = BoundState(2)
        state.set_exact(1, 7)
        assert state.lower[1] == state.upper[1] == 7

    def test_out_of_bounds_value_rejected(self):
        state = BoundState(2)
        # reprolint: disable=R2 (forcing internal state for the error path)
        state.lower[0] = 5
        with pytest.raises(InvalidParameterError):
            state.set_exact(0, 3)

    def test_gap(self):
        state = BoundState(2)
        state.set_exact(0, 4)
        gap = state.gap()
        assert gap[0] == 0
        assert gap[1] > 0

    def test_eccentricities_requires_resolution(self):
        state = BoundState(2)
        state.set_exact(0, 1)
        with pytest.raises(InvalidParameterError):
            state.eccentricities()

    def test_repr(self):
        assert "resolved=0" in repr(BoundState(3))


class TestProgress:
    """``progress`` equals the spelled-out numpy reductions, whichever
    kernel computes it."""

    @staticmethod
    def _state(dtype, n, tolerance, seed=3):
        """Bounds with resolved, finite-gap and untouched vertices."""
        rng = np.random.default_rng(seed)
        state = BoundState(n, dtype=dtype, tolerance=tolerance)
        subset = np.flatnonzero(rng.random(n) < 0.7)
        dist = rng.integers(0, 20, size=len(subset)).astype(dtype)
        state.apply_lemma31_subset(subset, dist, 25)
        return state

    @pytest.mark.parametrize("kernel", ["native", "numpy"])
    @pytest.mark.parametrize("dtype", [np.int32, np.float64])
    # 10_000 spans several of the C pass's 4096-vertex blocks.
    @pytest.mark.parametrize("n", [500, 10_000])
    @pytest.mark.parametrize("tolerance", [0.0, 1.0])
    def test_matches_reference(self, kernel, dtype, n, tolerance):
        from repro.graph import native

        if kernel == "native" and native.kernels() is None:
            pytest.skip("native kernel unavailable")
        state = self._state(dtype, n, tolerance)
        gap = state.upper.astype(np.float64) - state.lower.astype(np.float64)
        resolved = int(np.count_nonzero(gap <= tolerance))
        assert 0 < resolved < n
        loaded = (native.kernels(), native.kernel_info())
        numpy_only = (None, native.KernelInfo("numpy", "test"))
        with native.pinned(*(loaded if kernel == "native" else numpy_only)):
            assert state.progress() == (resolved, None)
            for cap in (float(n), 7.0, float(2**40)):
                want = float(np.minimum(gap, cap).sum())
                assert state.progress(cap) == (resolved, want)
