"""Satellites: extended FAULT_KINDS + FaultStats surfaced through the stack.

Fleet specs can now express every netsim fault component (corruption,
partition, latency_spike joined the mapped kinds), and the evidence the
faults actually fired flows upward: ``run_fleet`` documents carry the
network's ``fault_stats``, streaming aggregates fold and merge them, and
landscape cells record them alongside the success rates.
"""

from __future__ import annotations

import pytest

from repro.netsim.faults import (
    Corruption,
    FaultStats,
    LatencySpike,
    Partition,
)
from repro.population.aggregate import StreamingAggregate
from repro.population.fleet import _fault_components, run_fleet
from repro.population.spec import (
    FAULT_KINDS,
    WINDOWED_FAULT_KINDS,
    FaultRegimeSpec,
    PopulationSpec,
    SpecError,
    regime_table,
)


class TestExtendedFaultKinds:
    def test_all_netsim_kinds_are_expressible(self):
        assert set(FAULT_KINDS) == {
            "clean",
            "bursty_loss",
            "jitter",
            "duplication",
            "corruption",
            "partition",
            "latency_spike",
        }
        assert set(WINDOWED_FAULT_KINDS) == {"partition", "latency_spike"}

    def test_corruption_maps_to_component(self):
        regime = FaultRegimeSpec("noisy", kind="corruption", probability=0.3)
        assert _fault_components(regime) == (Corruption(0.3),)
        assert _fault_components(
            FaultRegimeSpec("off", kind="corruption", probability=0.0)
        ) == ()

    def test_partition_maps_window_not_probability(self):
        regime = FaultRegimeSpec(
            "cut", kind="partition", start=10.0, duration=5.0
        )
        assert _fault_components(regime) == (Partition(10.0, 5.0),)
        # Zero-duration windows are inert and dropped.
        assert _fault_components(FaultRegimeSpec("cut", kind="partition")) == ()

    def test_latency_spike_maps_window_with_magnitude(self):
        regime = FaultRegimeSpec(
            "slow", kind="latency_spike", start=1.0, duration=2.0, magnitude=0.5
        )
        assert _fault_components(regime) == (LatencySpike(1.0, 2.0, extra=0.5),)
        # magnitude defaults to 0.25 s of extra latency
        regime = FaultRegimeSpec(
            "slow", kind="latency_spike", start=1.0, duration=2.0
        )
        assert _fault_components(regime) == (LatencySpike(1.0, 2.0, extra=0.25),)

    def test_windows_validated_non_negative(self):
        with pytest.raises(SpecError):
            FaultRegimeSpec("bad", kind="partition", start=-1.0)
        with pytest.raises(SpecError):
            FaultRegimeSpec("bad", kind="partition", duration=-1.0)

    def test_spec_round_trips_windowed_regimes(self):
        spec = PopulationSpec(
            size=2,
            client_mix={"ntpd": 1.0},
            fault_mix={"cut": 1.0},
            fault_regimes=(
                FaultRegimeSpec("cut", kind="partition", start=5.0, duration=9.0),
            ),
        )
        clone = PopulationSpec.from_json(spec.to_json())
        assert clone == spec
        assert regime_table(clone.fault_regimes)["cut"].duration == 9.0


class TestAggregateFaultCounters:
    def test_fold_merge_and_round_trip(self):
        left = StreamingAggregate()
        left.fold("ntpd", True)
        left.fold_faults({"packets": 10, "dropped_partition": 3})
        right = StreamingAggregate()
        right.fold("chrony", False)
        right.fold_faults({"packets": 5, "duplicated": 2})
        left.merge(right)
        assert left.faults == {
            "packets": 15,
            "dropped_partition": 3,
            "duplicated": 2,
        }
        document = left.to_document()
        assert document["fault_stats"] == left.faults
        clone = StreamingAggregate.from_document(document)
        assert clone.faults == left.faults

    def test_fault_stats_document_round_trip(self):
        stats = FaultStats(packets=7, corrupted=2, duplicated=1)
        clone = FaultStats.from_document(stats.to_document())
        assert clone == stats
        # Unknown keys are ignored, not fatal (forward compatibility).
        assert FaultStats.from_document({"packets": 1, "future": 9}).packets == 1


class TestFleetSurfacing:
    def test_fleet_document_counts_fired_faults(self):
        spec = PopulationSpec(
            size=2,
            client_mix={"ntpd": 1.0},
            pool_size=8,
            warmup_seconds=60.0,
            max_duration_hours=0.05,
            fault_mix={"flaky": 1.0},
            fault_regimes=(
                FaultRegimeSpec("flaky", kind="duplication", probability=0.5),
            ),
        )
        document = run_fleet(spec, seed=0)
        assert document["fault_stats"]["duplicated"] > 0
        assert document["fault_stats"]["packets"] > 0
        assert (
            document["aggregate"]["fault_stats"] == document["fault_stats"]
        )
        assert "packets_dropped" in document

    def test_clean_fleet_reports_all_zero_stats(self):
        spec = PopulationSpec(
            size=1,
            client_mix={"ntpd": 1.0},
            pool_size=8,
            warmup_seconds=60.0,
            max_duration_hours=0.05,
        )
        document = run_fleet(spec, seed=0)
        assert all(v == 0 for v in document["fault_stats"].values())


class TestLandscapeSurfacing:
    def test_cells_carry_fault_stats(self, tmp_path):
        from repro.experiments.runner import ExperimentRunner
        from repro.experiments.store import RunStore
        from repro.population.landscape import sweep_landscape

        base = PopulationSpec(
            size=2,
            client_mix={"ntpd": 1.0},
            pool_size=8,
            warmup_seconds=60.0,
            max_duration_hours=0.05,
            fault_mix={"flaky": 1.0},
            fault_regimes=(
                FaultRegimeSpec("flaky", kind="duplication", probability=0.5),
            ),
        )
        store = RunStore(str(tmp_path))
        grid = sweep_landscape(
            store,
            "faulted",
            base,
            "size",
            (1.0, 2.0),
            "pool_rate_limit_fraction",
            (1.0,),
            seed=0,
            runner=ExperimentRunner(max_workers=1),
        )
        cells = grid["cells"]
        assert len(cells) == 2
        for cell in cells:
            assert cell["fault_stats"]["duplicated"] > 0
        assert store.manifest(grid["sweep_id"])["status"] == "complete"
