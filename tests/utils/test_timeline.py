"""Tests for repro.utils.timeline."""

import pytest

from repro.utils.timeline import DAY, HOUR, MINUTE, SECOND, WEEK, SimClock


class TestConstants:
    def test_hierarchy(self):
        assert MINUTE == 60 * SECOND
        assert HOUR == 60 * MINUTE
        assert DAY == 24 * HOUR
        assert WEEK == 7 * DAY


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_advance_by(self):
        clock = SimClock(1.0)
        clock.advance_by(2.5)
        assert clock.now == 3.5

    def test_cannot_rewind(self):
        clock = SimClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_by(-5.0)
        assert clock.now == 10.0

    def test_cannot_advance_by_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance_by(-1.0)
