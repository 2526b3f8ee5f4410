"""Landscape sweeps: axis application, the stored grid, and its report."""

from __future__ import annotations

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import RunStore
from repro.measurement.report import landscape_report
from repro.population.landscape import (
    SCALAR_AXES,
    apply_axis,
    landscape_specs,
    smoke_spec,
    sweep_landscape,
)
from repro.population.spec import PopulationSpec, SpecError


def _base_spec() -> PopulationSpec:
    return PopulationSpec(
        size=2,
        client_mix={"ntpd": 0.6, "chrony": 0.4},
        pool_size=8,
        warmup_seconds=60.0,
        max_duration_hours=0.02,
    )


class TestApplyAxis:
    def test_scalar_axis_replaces_field(self):
        spec = apply_axis(_base_spec(), "pool_rate_limit_fraction", 0.25)
        assert spec.pool_rate_limit_fraction == 0.25
        assert apply_axis(_base_spec(), "size", 5.0).size == 5

    def test_share_axis_renormalises_others(self):
        spec = apply_axis(_base_spec(), "share:ntpd", 0.2)
        mix = dict(spec.client_mix)
        assert mix["ntpd"] == pytest.approx(0.2)
        assert mix["chrony"] == pytest.approx(0.8)
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_full_share_collapses_mix(self):
        spec = apply_axis(_base_spec(), "share:ntpd", 1.0)
        assert spec.client_mix == (("ntpd", 1.0),)

    def test_share_axis_validation(self):
        with pytest.raises(SpecError):
            apply_axis(_base_spec(), "share:ntpdate", 0.5)
        with pytest.raises(SpecError):
            apply_axis(_base_spec(), "share:ntpd", 1.5)

    def test_unknown_axis_rejected(self):
        with pytest.raises(SpecError, match="unknown landscape axis"):
            apply_axis(_base_spec(), "favourite_colour", 1.0)
        assert "pool_rate_limit_fraction" in SCALAR_AXES

    def test_axis_application_is_pure(self):
        base = _base_spec()
        apply_axis(base, "share:ntpd", 0.9)
        assert base == _base_spec()


class TestLandscapeSpecs:
    def test_row_major_grid(self):
        specs = landscape_specs(
            _base_spec(), "share:ntpd", (0.2, 0.8), "pool_size", (8, 16), seed=3
        )
        assert len(specs) == 4
        coords = [(s.kwargs()["x"], s.kwargs()["y"]) for s in specs]
        assert coords == [(0.2, 8.0), (0.8, 8.0), (0.2, 16.0), (0.8, 16.0)]
        assert all(s.scenario == "population_landscape" for s in specs)


class TestSweepLandscape:
    def test_three_by_three_grid_through_run_stored(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        grid = sweep_landscape(
            store,
            "test-landscape",
            _base_spec(),
            "share:ntpd",
            (0.2, 0.5, 0.8),
            "pool_rate_limit_fraction",
            (0.0, 0.5, 1.0),
            seed=1,
            runner=ExperimentRunner(max_workers=1),
        )
        assert grid["kind"] == "landscape-grid"
        assert len(grid["cells"]) == 9
        assert all("aggregate" not in cell for cell in grid["cells"])
        for cell in grid["cells"]:
            assert cell["size"] == 2
            assert isinstance(cell["success_rate"], float)

        # Durable side: the sweep holds the 9 cell outcomes alone, each
        # carrying its cell's aggregate, and a complete stamp.
        sweep_id = grid["sweep_id"]
        assert store.manifest(sweep_id)["status"] == "complete"
        records = store.records(sweep_id)
        assert len(records) == 9
        assert sorted(r["index"] for r in records) == list(range(9))
        assert all(r["result"]["aggregate"]["total"] == 2 for r in records)
        results = {r["index"]: r["result"] for r in records}
        assert [c["successes"] for c in grid["cells"]] == [
            results[index]["successes"] for index in range(9)
        ]

        # And the pure reporting layer renders it.
        report = landscape_report(grid)
        assert "landscape test-landscape" in report
        assert "share:ntpd" in report
        assert report.count("\n") >= 4  # title + header + rule + 3 rows

    def test_smoke_spec_is_a_small_heterogeneous_fleet(self):
        spec = smoke_spec()
        assert spec.size <= 16
        assert len(spec.client_mix) >= 2
