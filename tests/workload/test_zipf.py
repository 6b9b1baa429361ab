"""Tests for repro.workload.zipf."""

import numpy as np
import pytest

from repro.workload.zipf import ZipfSampler


class TestZipfSampler:
    def test_pmf_sums_to_one(self):
        sampler = ZipfSampler(50, 1.2)
        assert sampler.pmf.sum() == pytest.approx(1.0)

    def test_pmf_monotone_decreasing(self):
        pmf = ZipfSampler(20, 1.0).pmf
        assert all(pmf[i] >= pmf[i + 1] for i in range(len(pmf) - 1))

    def test_exponent_zero_is_uniform(self):
        pmf = ZipfSampler(10, 0.0).pmf
        np.testing.assert_allclose(pmf, 0.1)

    def test_samples_in_range(self, rng):
        sampler = ZipfSampler(25, 1.0)
        samples = sampler.sample(rng, size=1000)
        assert samples.min() >= 0
        assert samples.max() < 25

    def test_scalar_sample(self, rng):
        value = ZipfSampler(5, 1.0).sample(rng)
        assert isinstance(value, int)
        assert 0 <= value < 5

    def test_empirical_matches_pmf(self, rng):
        sampler = ZipfSampler(8, 1.0)
        samples = sampler.sample(rng, size=50_000)
        counts = np.bincount(samples, minlength=8) / 50_000
        np.testing.assert_allclose(counts, sampler.pmf, atol=0.01)

    def test_probability_accessor(self):
        sampler = ZipfSampler(4, 1.0)
        total = sum(sampler.probability(r) for r in range(4))
        assert total == pytest.approx(1.0)

    def test_probability_out_of_range(self):
        with pytest.raises(IndexError):
            ZipfSampler(4, 1.0).probability(4)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            ZipfSampler(5, -1.0)

    def test_pmf_readonly(self):
        sampler = ZipfSampler(5, 1.0)
        with pytest.raises(ValueError):
            sampler.pmf[0] = 0.5

    def test_deterministic_with_seed(self):
        a = ZipfSampler(30, 1.0).sample(np.random.default_rng(9), size=20)
        b = ZipfSampler(30, 1.0).sample(np.random.default_rng(9), size=20)
        np.testing.assert_array_equal(a, b)

    def test_scalar_rank_for_uniform_agrees_with_the_array_map(self):
        sampler = ZipfSampler(40, 1.2)
        u = np.random.default_rng(4).random(500)
        scalar = [sampler.rank_for_uniform(x) for x in u.tolist()]
        np.testing.assert_array_equal(scalar, sampler.ranks_for_uniforms(u))
