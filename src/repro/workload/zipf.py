"""Bounded Zipf sampling.

P2P query popularity is famously Zipf-like; both the interest model and the
content catalog draw ranks from a bounded Zipf distribution.  numpy's
``Generator.zipf`` is unbounded, so we precompute the normalized CDF over a
finite rank range and sample by inverse transform: an array of uniforms
goes through one ``searchsorted``, a single uniform through a ``bisect``
on a list copy of the same CDF (a scalar ``searchsorted`` is almost all
numpy call overhead).  The two give the same rank for the same uniform.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_non_negative

__all__ = ["ZipfSampler"]


class ZipfSampler:
    """Sample ranks ``0..n-1`` with P(rank k) ∝ 1 / (k+1)**exponent."""

    def __init__(self, n: int, exponent: float = 1.0) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = int(n)
        self.exponent = check_non_negative("exponent", exponent)
        weights = 1.0 / np.power(np.arange(1, self.n + 1, dtype=float), self.exponent)
        self._pmf = weights / weights.sum()
        self._cdf = np.cumsum(self._pmf)
        # Guard against floating-point drift at the top end.
        self._cdf[-1] = 1.0
        # the same edges as Python floats, for the scalar draw
        self._cdf_list = self._cdf.tolist()

    @property
    def pmf(self) -> np.ndarray:
        """Probability mass function over ranks (read-only view)."""
        out = self._pmf.view()
        out.flags.writeable = False
        return out

    def sample(self, rng, size: int | None = None):
        """Draw one rank (``size=None``) or an array of ranks."""
        rng = as_generator(rng)
        if size is None:
            return self.rank_for_uniform(rng.random())
        return self.ranks_for_uniforms(rng.random(size))

    def rank_for_uniform(self, u: float) -> int:
        """Map one uniform(0, 1) draw to a rank, for callers that draw
        their own uniforms (the scalar twin of :meth:`ranks_for_uniforms`)."""
        return bisect_right(self._cdf_list, u)

    def ranks_for_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Map uniform(0, 1) draws to ranks (inverse transform), for
        callers that draw their own uniforms."""
        return np.searchsorted(self._cdf, u, side="right").astype(np.int64, copy=False)

    def probability(self, rank: int) -> float:
        if not 0 <= rank < self.n:
            raise IndexError(f"rank {rank} out of range [0, {self.n})")
        return float(self._pmf[rank])
