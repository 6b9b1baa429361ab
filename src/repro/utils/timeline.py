"""Simulated-time helpers.

The trace generator and the online overlay simulator both work in a
continuous simulated time line measured in seconds.  :class:`SimClock` is a
tiny monotonic clock object shared by components that need to agree on "now"
without threading a float through every call.  Constants give readable names
to the durations used throughout the paper's methodology (a 7-day capture).
"""

from __future__ import annotations

__all__ = ["SimClock", "SECOND", "MINUTE", "HOUR", "DAY", "WEEK"]

SECOND = 1.0
MINUTE = 60.0 * SECOND
HOUR = 60.0 * MINUTE
DAY = 24.0 * HOUR
WEEK = 7.0 * DAY


class SimClock:
    """Monotonic simulated clock.

    Time may only move forward; a negative step raises, which catches
    event-ordering bugs early.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance_by(self, dt: float) -> float:
        """Move the clock forward by ``dt`` seconds (must be >= 0)."""
        dt = float(dt)
        if dt < 0:
            raise ValueError("dt must be non-negative")
        self._now += dt
        return self._now

    def __repr__(self) -> str:  # pragma: no cover
        return f"SimClock(now={self._now:.3f})"
