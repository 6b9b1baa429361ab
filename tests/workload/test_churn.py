"""Tests for repro.workload.churn."""

import numpy as np
import pytest

from repro.workload.churn import LogNormalSessions


class TestLogNormalSessions:
    def test_samples_positive(self, rng):
        dist = LogNormalSessions(median=100.0, sigma=1.0)
        assert all(dist.sample(rng) > 0 for _ in range(100))

    def test_empirical_median(self):
        rng = np.random.default_rng(1)
        dist = LogNormalSessions(median=200.0, sigma=1.5)
        samples = sorted(dist.sample(rng) for _ in range(20_000))
        median = samples[len(samples) // 2]
        assert median == pytest.approx(200.0, rel=0.1)

    def test_heavy_tail_with_large_sigma(self):
        rng = np.random.default_rng(2)
        dist = LogNormalSessions(median=10.0, sigma=2.0)
        samples = [dist.sample(rng) for _ in range(10_000)]
        assert max(samples) > 50 * 10.0  # tail reaches far beyond the median

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LogNormalSessions(median=0.0)
        with pytest.raises(ValueError):
            LogNormalSessions(median=1.0, sigma=0.0)
