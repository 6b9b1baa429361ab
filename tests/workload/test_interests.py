"""Tests for repro.workload.interests."""

import numpy as np
import pytest

from repro.workload.interests import InterestModel, InterestProfile


class TestInterestProfile:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            InterestProfile(categories=(1, 2), weights=(0.5, 0.2))

    def test_weights_must_be_non_negative(self):
        # sums to 1, but its running sums are not sorted edges
        with pytest.raises(ValueError, match="non-negative"):
            InterestProfile(categories=(1, 2, 3), weights=(0.9, -0.2, 0.3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            InterestProfile(categories=(1,), weights=(0.5, 0.5))

    def test_needs_a_category(self):
        with pytest.raises(ValueError):
            InterestProfile(categories=(), weights=())

    def test_sample_respects_support(self, rng):
        profile = InterestProfile(categories=(3, 7), weights=(0.9, 0.1))
        for _ in range(50):
            assert profile.sample_category(rng) in (3, 7)

    def test_sample_distribution(self, rng):
        profile = InterestProfile(categories=(0, 1), weights=(0.8, 0.2))
        draws = [profile.sample_category(rng) for _ in range(5000)]
        share = draws.count(0) / len(draws)
        assert 0.75 < share < 0.85


class TestInterestModel:
    def test_profile_width(self, rng):
        model = InterestModel(50)
        profile = model.sample_profile(rng, width=4)
        assert len(profile.categories) == 4
        assert len(set(profile.categories)) == 4

    def test_width_capped_at_universe(self, rng):
        model = InterestModel(3)
        profile = model.sample_profile(rng, width=10)
        assert len(profile.categories) == 3

    def test_categories_in_range(self, rng):
        model = InterestModel(20)
        profile = model.sample_profile(rng, width=5)
        assert all(0 <= c < 20 for c in profile.categories)

    def test_first_category_has_highest_weight(self, rng):
        model = InterestModel(30)
        profile = model.sample_profile(rng, width=3)
        assert profile.weights[0] == max(profile.weights)

    def test_rejects_bad_width(self, rng):
        with pytest.raises(ValueError):
            InterestModel(5).sample_profile(rng, width=0)

    def test_rejects_empty_universe(self):
        with pytest.raises(ValueError):
            InterestModel(0)

    def test_category_popularity_sums_to_one(self):
        model = InterestModel(12, popularity_exponent=0.7)
        total = sum(model.category_popularity(c) for c in range(12))
        assert total == pytest.approx(1.0)

    def test_deterministic(self):
        a = InterestModel(40).sample_profile(np.random.default_rng(4), width=3)
        b = InterestModel(40).sample_profile(np.random.default_rng(4), width=3)
        assert a == b
