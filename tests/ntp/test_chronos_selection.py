"""Tests for the Chronos sample-selection algorithm."""

import pytest

from repro.ntp.chronos.selection import (
    chronos_select,
    minimum_attacker_fraction_to_shift,
    panic_select,
)


class TestTrimming:
    def test_agreeing_samples_accepted_and_averaged(self):
        samples = [0.001, 0.002, -0.001, 0.0, 0.003, -0.002, 0.001, 0.0, 0.002]
        result = chronos_select(samples)
        assert result.accepted
        assert result.offset == pytest.approx(0.001, abs=0.002)

    def test_outliers_trimmed_from_both_ends(self):
        samples = [-30.0, 0.0, 0.001, 0.002, 0.001, 0.0, 0.001, 0.002, 40.0]
        result = chronos_select(samples)
        assert result.accepted
        assert abs(result.offset) < 0.01
        assert result.discarded_low == 3 and result.discarded_high == 3

    def test_minority_attacker_filtered_out(self):
        """An attacker controlling < 1/3 of the samples cannot shift the result."""
        honest = [0.001 * i for i in range(-5, 5)]
        attacker = [-500.0] * 4  # 4 of 14 samples
        result = chronos_select(honest + attacker)
        assert result.accepted
        assert abs(result.offset) < 0.01

    def test_empty_samples_rejected(self):
        result = chronos_select([])
        assert not result.accepted and result.reason == "no samples"

    def test_small_sample_sets_survive_without_trimming(self):
        result = chronos_select([0.001, 0.002])
        assert result.accepted
        assert len(result.surviving_samples) == 2


class TestRejection:
    def test_disagreeing_survivors_rejected(self):
        samples = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
        result = chronos_select(samples, agreement_bound=0.025)
        assert not result.accepted
        assert "disagree" in result.reason

    def test_divergence_from_local_clock_rejected(self):
        samples = [10.0, 10.001, 10.002, 10.0, 10.001, 10.002]
        result = chronos_select(samples, local_offset_estimate=0.0, drift_bound=0.125)
        assert not result.accepted
        assert "diverge" in result.reason

    def test_majority_attacker_forces_rejection_or_shift(self):
        """With > 2/3 attacker control the surviving set is attacker data."""
        honest = [0.001, 0.0, -0.001]
        attacker = [-500.0] * 12
        result = chronos_select(honest + attacker)
        # The survivors are all attacker samples; they agree with each other
        # but diverge from the local clock, so the round is rejected (the
        # client will eventually panic and then accept them).
        assert not result.accepted
        assert result.offset == pytest.approx(-500.0, abs=1.0)


class TestPanicMode:
    def test_panic_averages_middle_third(self):
        samples = [-100.0, 0.0, 0.001, 0.002, 100.0, 0.001]
        assert abs(panic_select(samples)) < 0.01

    def test_panic_with_attacker_majority_yields_attacker_time(self):
        samples = [0.0] * 5 + [-500.0] * 14
        assert panic_select(samples) == pytest.approx(-500.0, abs=1.0)

    def test_panic_empty(self):
        assert panic_select([]) == 0.0

    def test_security_bound_is_two_thirds(self):
        assert minimum_attacker_fraction_to_shift() == pytest.approx(2 / 3)
