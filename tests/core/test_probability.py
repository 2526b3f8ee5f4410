"""Tests for the Table III probability model."""

import math

import pytest

from repro.core.probability import (
    PAPER_P_RATE,
    monte_carlo_scenario1,
    monte_carlo_scenario2,
    probability_scenario1,
    probability_scenario2,
    required_removals,
    table3_rows,
)

#: The values printed in Table III of the paper (percent).
PAPER_TABLE3 = {
    1: (1, 38.0, 38.0),
    2: (2, 14.4, 14.4),
    3: (2, 14.4, 32.4),
    4: (3, 5.5, 15.7),
    5: (3, 5.5, 28.4),
    6: (4, 2.1, 15.3),
    7: (5, 0.8, 7.8),
    8: (6, 0.3, 3.9),
    9: (7, 0.1, 1.8),
}


class TestClosedForms:
    def test_p1_is_geometric(self):
        assert probability_scenario1(0) == 1.0
        assert probability_scenario1(1) == pytest.approx(PAPER_P_RATE)
        assert probability_scenario1(3) == pytest.approx(PAPER_P_RATE ** 3)

    def test_p2_reduces_to_p1_when_all_servers_needed(self):
        for m in range(1, 8):
            assert probability_scenario2(m, m) == pytest.approx(probability_scenario1(m))

    def test_p2_is_binomial_tail(self):
        assert probability_scenario2(4, 0) == pytest.approx(1.0)
        manual = sum(
            math.comb(4, i) * PAPER_P_RATE ** i * (1 - PAPER_P_RATE) ** (4 - i)
            for i in range(2, 5)
        )
        assert probability_scenario2(4, 2) == pytest.approx(manual)

    def test_p2_monotone_in_m_for_fixed_n(self):
        assert probability_scenario2(6, 3) > probability_scenario2(4, 3)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            probability_scenario1(-1)
        with pytest.raises(ValueError):
            probability_scenario2(3, 5)
        with pytest.raises(ValueError):
            required_removals(0)


class TestRequiredRemovals:
    def test_matches_paper_n_column(self):
        for m, (n, _, _) in PAPER_TABLE3.items():
            assert required_removals(m) == n


class TestTable3:
    def test_rows_match_paper_within_rounding(self):
        rows = {row.m: row for row in table3_rows()}
        for m, (n, p1, p2) in PAPER_TABLE3.items():
            assert rows[m].n == n
            assert rows[m].p1 * 100 == pytest.approx(p1, abs=0.06)
            assert rows[m].p2 * 100 == pytest.approx(p2, abs=0.06)

    def test_custom_p_rate(self):
        rows = table3_rows(p_rate=1.0)
        assert all(row.p1 == 1.0 and row.p2 == 1.0 for row in rows)

    def test_p2_always_at_least_p1(self):
        for row in table3_rows():
            assert row.p2 >= row.p1 - 1e-12


class TestMonteCarlo:
    def test_scenario1_agrees_with_closed_form(self):
        for n in (1, 2, 4):
            estimate = monte_carlo_scenario1(n, trials=200_000)
            assert estimate == pytest.approx(probability_scenario1(n), abs=0.005)

    def test_scenario2_agrees_with_closed_form(self):
        for m, n in ((4, 3), (6, 4), (9, 7)):
            estimate = monte_carlo_scenario2(m, n, trials=200_000)
            assert estimate == pytest.approx(probability_scenario2(m, n), abs=0.005)


class TestExpectedAttempts:
    def test_ntpd_default_needs_a_handful_of_client_instances(self):
        """With P2(6,4) ~= 15%, roughly 1 in 7 default ntpd clients is in a
        vulnerable state at any time (expected attempts = 1 / P2)."""
        attempts = 1.0 / probability_scenario2(6, 4)
        assert 6 < attempts < 7


class TestSharedMatrixMonteCarlo:
    """monte_carlo_table3: one (trials, m) RNG pass reused across all rows."""

    def test_agrees_with_closed_forms_on_every_row(self):
        from repro.core.probability import monte_carlo_table3

        estimates = monte_carlo_table3(trials=200_000)
        for m, (mc_p1, mc_p2) in estimates.items():
            n = required_removals(m)
            assert mc_p1 == pytest.approx(probability_scenario1(n), abs=0.005)
            assert mc_p2 == pytest.approx(probability_scenario2(m, n), abs=0.005)

    def test_covers_requested_rows(self):
        from repro.core.probability import monte_carlo_table3

        assert set(monte_carlo_table3(m_values=[2, 5], trials=1_000)) == {2, 5}
        assert monte_carlo_table3(m_values=[]) == {}

    def test_single_rng_pass_is_deterministic(self):
        import numpy as np

        from repro.core.probability import monte_carlo_table3

        first = monte_carlo_table3(trials=10_000, rng=np.random.default_rng(7))
        second = monte_carlo_table3(trials=10_000, rng=np.random.default_rng(7))
        assert first == second
