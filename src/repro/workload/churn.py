"""Peer session-length (churn) models.

Measured Gnutella session times are heavy-tailed: most peers stay minutes,
a few stay days.  That tail is what keeps Static Ruleset's coverage around
0.4 for a while (long-lived neighbors keep issuing queries) even as its
success collapses (the reply paths behind them churn much faster).
"""

from __future__ import annotations

from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["LogNormalSessions"]


class LogNormalSessions:
    """Log-normal session durations, parameterized by median and sigma."""

    def __init__(self, median: float = 1800.0, sigma: float = 1.0) -> None:
        self.median = check_positive("median", median)
        self.sigma = check_positive("sigma", sigma)

    def sample(self, rng) -> float:
        rng = as_generator(rng)
        import math

        return float(self.median * math.exp(self.sigma * rng.standard_normal()))
