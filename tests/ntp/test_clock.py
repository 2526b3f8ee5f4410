"""Tests for the system clock model."""

import pytest

from repro.ntp.clock import SystemClock


class TestReading:
    def test_zero_offset_tracks_true_time(self):
        clock = SystemClock()
        assert clock.time(100.0) == pytest.approx(100.0)
        assert clock.error(100.0) == pytest.approx(0.0)

    def test_constant_offset(self):
        clock = SystemClock(offset=-500.0)
        assert clock.time(1000.0) == pytest.approx(500.0)
        assert clock.error(1000.0) == pytest.approx(-500.0)

    def test_drift_accumulates(self):
        clock = SystemClock(drift_ppm=100.0, created_at=0.0)
        assert clock.error(10_000.0) == pytest.approx(1.0)


class TestAdjustments:
    def test_step(self):
        clock = SystemClock()
        clock.step(-500.0, true_time=50.0)
        assert clock.error(50.0) == pytest.approx(-500.0)
        assert clock.total_stepped() == pytest.approx(-500.0)
        assert clock.adjustments[-1].stepped

    def test_slew_is_bounded(self):
        clock = SystemClock()
        applied = clock.slew(-10.0, true_time=0.0, max_rate=0.0005)
        assert applied == pytest.approx(-0.0005)
        assert clock.error(0.0) == pytest.approx(-0.0005)

    def test_small_slew_applied_fully(self):
        clock = SystemClock()
        applied = clock.slew(0.0001, true_time=0.0)
        assert applied == pytest.approx(0.0001)

    def test_total_stepped_ignores_slews(self):
        clock = SystemClock()
        clock.slew(0.0001, true_time=0.0)
        clock.step(-2.0, true_time=1.0)
        assert clock.total_stepped() == pytest.approx(-2.0)
