"""Tests for repro.metrics.series."""

import pytest

from repro.metrics.series import sawtooth_depth


class TestSawtoothDepth:
    def test_known_sawtooth(self):
        series = [1.0, 0.8, 0.6, 1.0, 0.9, 0.5]
        assert sawtooth_depth(series, 3) == pytest.approx((0.4 + 0.5) / 2)

    def test_flat_series(self):
        assert sawtooth_depth([0.5] * 9, 3) == pytest.approx(0.0)

    def test_nan_when_too_short(self):
        import math

        assert math.isnan(sawtooth_depth([1.0], 3))

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            sawtooth_depth([1.0, 2.0], 0)

    def test_period_one_is_always_flat(self):
        # Each span is a single sample, so peak == trough everywhere.
        assert sawtooth_depth([0.9, 0.1, 0.5], 1) == pytest.approx(0.0)

    def test_empty_series_is_nan(self):
        import math

        assert math.isnan(sawtooth_depth([], 3))
