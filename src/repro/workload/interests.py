"""Interest categories and per-peer interest profiles.

Interest-based locality — "because users have a limited set of interests, a
node that has provided hits previously is likely to share the same
interests" (paper §II, refs [7][8][9]) — is the mechanism that makes
association-rule routing work at all.  We model it directly: the content
universe is partitioned into *categories*; each peer (or each monitor-node
neighbor, standing in for its subtree of users) holds a narrow
:class:`InterestProfile` over a handful of categories and draws its queries
from that profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_generator
from repro.workload.zipf import ZipfSampler

__all__ = ["InterestModel", "InterestProfile"]


@dataclass(frozen=True)
class InterestProfile:
    """A peer's interests: category ids and matching sampling weights."""

    categories: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.categories) != len(self.weights):
            raise ValueError("categories and weights must have equal length")
        if not self.categories:
            raise ValueError("a profile needs at least one category")
        if min(self.weights) < 0.0:
            # the running sums are searched as sorted edges
            raise ValueError("weights must be non-negative")
        total = float(sum(self.weights))
        # np.isclose(total, 1.0) at its default tolerances, NaN included
        if not abs(total - 1.0) <= 1e-8 + 1e-5:
            raise ValueError(f"weights must sum to 1, got {total}")

    def sample_category(self, rng) -> int:
        """Draw one category according to the profile weights."""
        rng = as_generator(rng)
        return self.category_for_uniform(float(rng.random()))

    def category_for_uniform(self, u: float) -> int:
        """Map a uniform(0, 1) draw to a category (hot-loop fast path).

        Lets callers that manage their own uniform supply (e.g. a
        :class:`repro.utils.rng.UniformBuffer`) avoid per-call generator
        dispatch.
        """
        acc = 0.0
        for cat, w in zip(self.categories, self.weights):
            acc += w
            if u < acc:
                return cat
        return self.categories[-1]


class InterestModel:
    """Factory for interest profiles over a shared category universe.

    Categories themselves have Zipf-distributed global popularity (some
    interests are common to many users), and an individual profile weights
    its few categories Zipf-style as well (a user's primary interest
    dominates).
    """

    def __init__(
        self,
        n_categories: int,
        *,
        popularity_exponent: float = 0.8,
        within_profile_exponent: float = 1.0,
    ) -> None:
        if n_categories < 1:
            raise ValueError("n_categories must be >= 1")
        self.n_categories = int(n_categories)
        self._popularity = ZipfSampler(self.n_categories, popularity_exponent)
        self.within_profile_exponent = float(within_profile_exponent)
        # width -> in-profile weights: one tuple serves every profile of
        # a width (at most n_categories of them)
        self._weights: dict[int, tuple[float, ...]] = {}

    def sample_profile(self, rng, *, width: int = 3) -> InterestProfile:
        """Create a profile over ``width`` distinct categories.

        The categories are drawn by global popularity (without replacement);
        their in-profile weights decay Zipf-style in draw order, so the
        first-drawn (usually globally popular) category dominates.
        """
        if width < 1:
            raise ValueError("width must be >= 1")
        width = min(width, self.n_categories)
        # ZipfSampler.sample's draw, bound once for the profile
        random, rank = as_generator(rng).random, self._popularity.rank_for_uniform
        chosen: list[int] = []
        seen: set[int] = set()
        # Rejection sampling is fine: width << n_categories in practice.
        attempts = 0
        while len(chosen) < width:
            cat = rank(random())
            attempts += 1
            if cat not in seen:
                seen.add(cat)
                chosen.append(cat)
            if attempts > 200 * width:
                # Pathological popularity skew: fill deterministically.
                for cat in range(self.n_categories):
                    if cat not in seen:
                        seen.add(cat)
                        chosen.append(cat)
                        if len(chosen) == width:
                            break
        weights = self._weights.get(width)
        if weights is None:
            raw = 1.0 / np.power(
                np.arange(1, width + 1, dtype=float), self.within_profile_exponent
            )
            weights = self._weights[width] = tuple((raw / raw.sum()).tolist())
        return InterestProfile(categories=tuple(chosen), weights=weights)

    def category_popularity(self, category: int) -> float:
        """Global popularity of a category (probability mass)."""
        return self._popularity.probability(category)
