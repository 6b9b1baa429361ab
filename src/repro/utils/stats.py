"""Streaming statistics.

Rolling means (used by the Adaptive Sliding Window thresholds) and
running mean / extremes (used by traffic accounting in the online
simulator, where materializing per-message samples would be wasteful).
"""

from __future__ import annotations

import math
from collections import deque

__all__ = ["RollingMean", "RunningStats"]


class RollingMean:
    """Mean over the most recent ``window`` observations.

    This is the threshold calculator suggested by the paper for Adaptive
    Sliding Window ("use the mean of the previous N values").  Before any
    observation arrives :meth:`value` returns ``default``.
    """

    def __init__(self, window: int, default: float = 0.0) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = int(window)
        self.default = float(default)
        self._values: deque[float] = deque(maxlen=self.window)
        self._total = 0.0

    def push(self, value: float) -> None:
        """Add an observation, evicting the oldest if the window is full."""
        value = float(value)
        if len(self._values) == self.window:
            self._total -= self._values[0]
        self._values.append(value)
        self._total += value

    def value(self) -> float:
        """Current rolling mean (``default`` when empty)."""
        if not self._values:
            return self.default
        return self._total / len(self._values)

    def __len__(self) -> int:
        return len(self._values)


class RunningStats:
    """Online mean and extremes (Welford's incremental mean).

    Single-pass statistics; avoids keeping per-sample arrays in the hot
    loops of the network simulator.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._min = math.inf
        self._max = -math.inf

    def push(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self._mean += (value - self._mean) / self.count
        # min() and max() without the builtin calls, NaN handled alike
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else float("nan")

    @property
    def minimum(self) -> float:
        return self._min if self.count else float("nan")

    @property
    def maximum(self) -> float:
        return self._max if self.count else float("nan")
