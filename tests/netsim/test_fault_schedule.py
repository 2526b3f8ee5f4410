"""Scheduled fault-regime swaps: FaultSchedule + Network swap wiring.

The chaos layer (:mod:`repro.population.chaos`) compiles phased regimes
into :class:`~repro.netsim.faults.FaultSchedule` timelines executed by
:meth:`~repro.netsim.network.Network.apply_fault_schedule`.  This file
covers the mechanics those campaigns lean on: schedule validation, the
retired-stats ledger (network fault totals stay monotone across swaps),
epoch-tagged replacement streams, and inert schedules attaching nothing.
"""

from __future__ import annotations

import pytest

from repro.netsim import (
    Corruption,
    FaultSchedule,
    Network,
    Partition,
    Simulator,
)
from repro.netsim.errors import FaultConfigError


def build(seed: int = 4):
    simulator = Simulator(seed=seed)
    network = Network(simulator)
    network.add_host("a", "10.0.0.1")
    received = []
    network.add_host("b", "10.0.0.2").bind(
        53, on_datagram=lambda payload, *rest: received.append(payload)
    )
    return simulator, network, received


class TestFaultSchedule:
    def test_entries_normalised_and_ordered(self):
        schedule = FaultSchedule([(0, (Corruption(0.1),)), (5.0, ())])
        assert len(schedule.entries) == 2
        assert schedule.entries[0][0] == 0.0
        assert isinstance(schedule.entries[0][0], float)

    def test_rejects_unordered_and_negative_times(self):
        with pytest.raises(FaultConfigError):
            FaultSchedule([(5.0, ()), (1.0, (Corruption(0.1),))])
        with pytest.raises(FaultConfigError):
            FaultSchedule([(-1.0, ())])
        with pytest.raises(FaultConfigError):
            FaultSchedule([(1.0, ()), (1.0, ())])

    def test_rejects_non_components(self):
        with pytest.raises(FaultConfigError):
            FaultSchedule([(0.0, ("not-a-component",))])

    def test_is_inert_when_every_entry_composes_inert(self):
        assert FaultSchedule([(0.0, ()), (5.0, (Corruption(0.0),))]).is_inert
        assert not FaultSchedule([(0.0, (Corruption(0.5),))]).is_inert
        assert FaultSchedule([(0.0, ())]).entries
        assert FaultSchedule([]).is_inert
        assert not FaultSchedule([]).entries


class TestSwapLinkFaults:
    def test_swap_preserves_accumulated_stats(self):
        simulator, network, _ = build()
        network.set_link_faults("10.0.0.1", "10.0.0.2", Partition(0.0, 1000.0))
        source = network.host("10.0.0.1").bind(0)
        for _ in range(5):
            source.sendto(b"hello", "10.0.0.2", 53)
        simulator.run()
        assert network.fault_stats().dropped_partition == 5

        # Swapping to a fresh plan must fold the old channel's counters
        # into the retired ledger, not reset them.
        network.swap_link_faults("10.0.0.1", "10.0.0.2", Corruption(1.0))
        assert network.fault_stats().dropped_partition == 5
        source.sendto(b"corrupt-me", "10.0.0.2", 53)
        simulator.run()
        stats = network.fault_stats()
        assert stats.dropped_partition == 5
        assert stats.corrupted == 1

    def test_per_pair_stats_merge_retired_and_live(self):
        simulator, network, _ = build()
        network.set_link_faults("10.0.0.1", "10.0.0.2", Partition(0.0, 1000.0))
        source = network.host("10.0.0.1").bind(0)
        for _ in range(3):
            source.sendto(b"x", "10.0.0.2", 53)
        simulator.run()
        network.swap_link_faults("10.0.0.1", "10.0.0.2")
        per_pair = network.per_pair_fault_stats()
        assert per_pair[("10.0.0.1", "10.0.0.2")].dropped_partition == 3

    def test_swap_bumps_replacement_stream_epoch(self):
        _, network, _ = build()
        network.set_link_faults("10.0.0.1", "10.0.0.2", Corruption(0.5))
        network.pipeline_for("10.0.0.1", "10.0.0.2")
        first = network.fault_channel("10.0.0.1", "10.0.0.2")
        network.swap_link_faults("10.0.0.1", "10.0.0.2", Corruption(0.5))
        network.pipeline_for("10.0.0.1", "10.0.0.2")
        second = network.fault_channel("10.0.0.1", "10.0.0.2")
        assert second is not first
        assert network._fault_epochs[("10.0.0.1", "10.0.0.2")] == 1


class TestApplyFaultSchedule:
    def test_scheduled_partition_applies_and_heals(self):
        simulator, network, received = build()
        schedule = FaultSchedule(
            [(10.0, (Partition(10.0, 10.0),)), (20.0, ())]
        )
        network.apply_fault_schedule("10.0.0.1", "10.0.0.2", schedule)
        source = network.host("10.0.0.1").bind(0)
        for step in range(30):
            simulator.schedule(
                float(step), source.sendto, args=(b"tick", "10.0.0.2", 53)
            )
        simulator.run()
        # 10 ticks fall inside [10, 20): dropped; the rest deliver.
        assert network.fault_stats().dropped_partition == 10
        assert len(received) == 20

    def test_inert_schedule_attaches_and_schedules_nothing(self):
        simulator, network, _ = build()
        before = len(simulator._heap) if hasattr(simulator, "_heap") else None
        network.apply_fault_schedule(
            "10.0.0.1", "10.0.0.2", FaultSchedule([(0.0, ()), (5.0, ())])
        )
        assert network.link_between("10.0.0.1", "10.0.0.2").faults is None
        if before is not None:
            assert len(simulator._heap) == before
