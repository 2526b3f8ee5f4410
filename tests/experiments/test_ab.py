"""Paired A/B verdicts of ``benchmarks/ab.py`` (the comparison, not the runs)."""

from __future__ import annotations

import os
import sys

BENCHMARKS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
)
sys.path.insert(0, BENCHMARKS_DIR)

import ab  # noqa: E402

DECLARED = {
    "wall_s": {"better": "lower", "bound": 0.25},
    "client_h_per_s": {"better": "higher", "bound": 0.25},
}


def runs(name: str, values: list[float]) -> list[dict]:
    return [{name: value} for value in values]


class TestCompare:
    def test_clear_gain_on_a_higher_is_better_metric(self):
        a = runs("client_h_per_s", [10.0, 10.4, 9.9, 10.2, 10.1])
        b = runs("client_h_per_s", [7.0, 7.2, 6.9, 7.1, 7.3])
        row = ab.compare(a, b, DECLARED)["client_h_per_s"]
        assert row["wins"] == 5 and row["pairs"] == 5
        assert row["a_median"] == 10.1 and row["b_median"] == 7.1
        assert abs(row["b_iqr"] - 0.2) < 1e-9
        assert row["gain"]

    def test_lower_is_better_counts_wins_the_other_way(self):
        a = runs("wall_s", [3.0, 3.1, 2.9, 3.2])
        b = runs("wall_s", [4.0, 4.2, 4.1, 4.3])
        row = ab.compare(a, b, DECLARED)["wall_s"]
        assert row["wins"] == 4
        assert row["gain"]

    def test_one_lost_pair_in_five_is_not_a_gain(self):
        a = runs("wall_s", [3.0, 3.0, 3.0, 3.0, 5.0])
        b = runs("wall_s", [4.0, 4.0, 4.0, 4.0, 4.0])
        row = ab.compare(a, b, DECLARED)["wall_s"]
        assert row["wins"] == 4
        assert not row["gain"]

    def test_difference_inside_the_iqr_is_not_a_gain(self):
        a = runs("wall_s", [3.9, 3.9, 3.9, 3.9])
        b = runs("wall_s", [4.0, 3.95, 4.5, 3.92])
        row = ab.compare(a, b, DECLARED)["wall_s"]
        assert row["wins"] == 4
        assert row["b_iqr"] > 0.1
        assert not row["gain"]

    def test_single_pair_has_zero_iqr(self):
        assert ab.quartiles([2.5]) == (2.5, 2.5)


class TestGate:
    """``make regression`` fails on any verdict other than ``ok``."""

    def test_slowdown_past_the_bound_regresses(self):
        a = runs("wall_s", [5.2, 5.3, 5.1])
        b = runs("wall_s", [4.0, 4.1, 4.0])
        assert ab.compare(a, b, DECLARED)["wall_s"]["verdict"] == "regressed"

    def test_slowdown_inside_the_bound_is_ok(self):
        a = runs("wall_s", [4.9, 4.8, 5.0])
        b = runs("wall_s", [4.0, 4.1, 4.0])
        assert ab.compare(a, b, DECLARED)["wall_s"]["verdict"] == "ok"

    def test_higher_is_better_regresses_downwards(self):
        a = runs("client_h_per_s", [7.0, 7.1, 7.2])
        b = runs("client_h_per_s", [10.0, 10.1, 9.9])
        row = ab.compare(a, b, DECLARED)["client_h_per_s"]
        assert row["verdict"] == "regressed"
        a = runs("client_h_per_s", [13.0, 13.1, 13.2])
        assert ab.compare(a, b, DECLARED)["client_h_per_s"]["verdict"] == "ok"

    def test_wide_rev_spread_is_unresolved(self):
        a = runs("wall_s", [4.0, 4.0, 4.0])
        b = runs("wall_s", [2.0, 4.0, 6.0])
        assert ab.compare(a, b, DECLARED)["wall_s"]["verdict"] == "unresolved"

    def test_wide_rev_spread_with_every_run_better_is_ok(self):
        a = runs("wall_s", [1.0, 1.1, 1.2])
        b = runs("wall_s", [2.0, 4.0, 6.0])
        assert ab.compare(a, b, DECLARED)["wall_s"]["verdict"] == "ok"

    def test_undeclared_entries_are_not_compared(self):
        a = [{"wall_s": 4.0, "cpu_s": 9.0}]
        b = [{"wall_s": 4.0, "cpu_s": 3.0}]
        assert set(ab.compare(a, b, DECLARED)) == {"wall_s"}


class TestPerLayer:
    """The traced-pass report: counts read same/changed, the rest ratios."""

    DECLARED_LAYERS = [
        {"name": "netsim.events", "unit": "count", "better": "lower"},
        {"name": "ntp.handler_s", "unit": "s", "better": "lower"},
        {"name": "netsim.events_per_s", "unit": "1/s", "better": "higher"},
        {"name": "testbed.builds", "unit": "count", "better": "lower"},
    ]

    def test_counts_read_same_or_changed(self):
        a = {"netsim.events": 1791144, "testbed.builds": 9}
        b = {"netsim.events": 1791144, "testbed.builds": 10}
        report = ab.per_layer(a, b, self.DECLARED_LAYERS)
        assert report["netsim.events"] == {
            "a": 1791144, "b": 1791144, "verdict": "same"
        }
        assert report["testbed.builds"]["verdict"] == "changed"
        assert "ratio" not in report["netsim.events"]

    def test_other_metrics_read_as_a_over_rev(self):
        a = {"ntp.handler_s": 2.0, "netsim.events_per_s": 330_000.0}
        b = {"ntp.handler_s": 2.5, "netsim.events_per_s": 300_000.0}
        report = ab.per_layer(a, b, self.DECLARED_LAYERS)
        assert report["ntp.handler_s"]["ratio"] == 0.8
        assert report["netsim.events_per_s"]["ratio"] == 1.1
        assert "verdict" not in report["ntp.handler_s"]

    def test_zero_rev_value_has_no_ratio(self):
        report = ab.per_layer(
            {"ntp.handler_s": 0.5}, {"ntp.handler_s": 0.0}, self.DECLARED_LAYERS
        )
        assert report["ntp.handler_s"]["ratio"] is None

    def test_metrics_missing_on_a_side_are_skipped(self):
        a = {"netsim.events": 5, "cpu_s": 1.0}
        b = {"netsim.events": 5, "ntp.handler_s": 1.0}
        assert set(ab.per_layer(a, b, self.DECLARED_LAYERS)) == {"netsim.events"}
