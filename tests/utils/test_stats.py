"""Tests for repro.utils.stats."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.stats import RollingMean, RunningStats

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestRollingMean:
    def test_default_before_observations(self):
        assert RollingMean(5, default=0.7).value() == 0.7

    def test_mean_of_partial_window(self):
        rm = RollingMean(10)
        rm.push(1.0)
        rm.push(3.0)
        assert rm.value() == pytest.approx(2.0)

    def test_eviction_at_window_boundary(self):
        rm = RollingMean(3)
        for v in [1.0, 2.0, 3.0, 4.0]:
            rm.push(v)
        assert rm.value() == pytest.approx(3.0)  # mean of [2, 3, 4]
        assert len(rm) == 3

    def test_window_one_tracks_last(self):
        rm = RollingMean(1)
        rm.push(5.0)
        rm.push(9.0)
        assert rm.value() == 9.0

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            RollingMean(0)

    @given(st.lists(floats, min_size=1, max_size=60), st.integers(1, 10))
    def test_matches_numpy_tail_mean(self, values, window):
        rm = RollingMean(window)
        for v in values:
            rm.push(v)
        expected = float(np.mean(values[-window:]))
        assert rm.value() == pytest.approx(expected, rel=1e-9, abs=1e-6)


class TestRunningStats:
    def test_empty_is_nan(self):
        rs = RunningStats()
        assert math.isnan(rs.mean)
        assert math.isnan(rs.minimum)
        assert math.isnan(rs.maximum)

    def test_single_value(self):
        rs = RunningStats()
        rs.push(4.0)
        assert rs.mean == 4.0
        assert rs.minimum == rs.maximum == 4.0

    @given(st.lists(floats, min_size=2, max_size=100))
    def test_matches_numpy(self, values):
        rs = RunningStats()
        for value in values:
            rs.push(value)
        assert rs.count == len(values)
        assert rs.mean == pytest.approx(float(np.mean(values)), rel=1e-6, abs=1e-6)
        assert rs.minimum == min(values)
        assert rs.maximum == max(values)
