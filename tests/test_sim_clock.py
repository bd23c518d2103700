"""Unit tests for the virtual clock and time helpers."""

import pytest

from repro.sim.clock import (
    US_PER_MS,
    US_PER_SEC,
    SimClock,
    ms,
    seconds,
    to_seconds,
)


class TestConversions:
    def test_ms_converts_to_microseconds(self):
        assert ms(1) == 1_000
        assert ms(2.5) == 2_500

    def test_seconds_converts_to_microseconds(self):
        assert seconds(1) == 1_000_000
        assert seconds(0.25) == 250_000

    def test_round_trip_seconds(self):
        assert to_seconds(seconds(3.5)) == pytest.approx(3.5)

    def test_round_trip_ms(self):
        assert to_seconds(ms(42)) == pytest.approx(0.042)

    def test_constants_are_consistent(self):
        assert US_PER_SEC == 1_000 * US_PER_MS


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now == 0

    def test_custom_start(self):
        assert SimClock(start=500).now == 500

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1)

    def test_advance_to_moves_forward(self):
        clock = SimClock()
        clock.advance_to(1_000)
        assert clock.now == 1_000

    def test_advance_to_same_time_is_allowed(self):
        clock = SimClock()
        clock.advance_to(100)
        clock.advance_to(100)
        assert clock.now == 100

    def test_advance_to_backwards_rejected(self):
        clock = SimClock()
        clock.advance_to(100)
        with pytest.raises(ValueError):
            clock.advance_to(99)

    def test_advance_by_accumulates(self):
        clock = SimClock()
        clock.advance_by(10)
        clock.advance_by(15)
        assert clock.now == 25

    def test_advance_by_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance_by(-1)

    def test_now_seconds(self):
        clock = SimClock()
        clock.advance_to(2_500_000)
        assert to_seconds(clock.now) == pytest.approx(2.5)
