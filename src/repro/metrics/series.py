"""Time-series helpers for coverage/success curves."""

from __future__ import annotations

import numpy as np

__all__ = ["sawtooth_depth"]


def sawtooth_depth(values, period: int) -> float:
    """Mean peak-to-trough drop within consecutive ``period``-length spans.

    Characterizes Lazy Sliding Window's sawtooth (paper Fig. 3): how much
    quality is lost between a regeneration and the end of its lazy span.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    arr = np.asarray(list(values), dtype=float)
    drops = []
    for start in range(0, arr.size - period + 1, period):
        span = arr[start : start + period]
        drops.append(float(span[0] - span[-1]))
    return float(np.mean(drops)) if drops else float("nan")
