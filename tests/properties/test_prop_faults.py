"""Chaos property suite: the laws the fault-injection layer must obey.

Marked ``chaos`` (``make chaos`` runs just this suite; ``make test`` runs it
with everything else).  Three families of law:

* **Zero-fault bit-identity.**  Attaching an inert plan (every component
  zero-rate) leaves every observable — heap sequence numbers, loss draws,
  captures, per-host counters — bit-identical to a world that never heard
  of faults.  This is the graceful-degradation guarantee: fault support is
  free until a fault can actually fire.
* **Conservation.**  Under arbitrary seeded fault regimes: every packet
  transmitted is either fault-dropped or captured (duplicates add, never
  multiply); every capture-observed corrupted delivery is rejected by the
  *real* checksum verify as a derived ``udp_checksum_failures``; every
  delivery is either verified or rejected.  And the simulation terminates
  — fault channels never create self-amplifying traffic.
* **Strictness.**  The whole regime runs under ``Simulator(strict=True)``
  invariant guards without tripping them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import (
    Corruption,
    Duplication,
    GilbertElliott,
    LatencySpike,
    Partition,
    ReorderJitter,
)

from tests.properties.chaos_world import chaos_link_faults
from tests.properties.test_prop_batch_delivery import (
    HOST_IPS,
    build_packets,
    build_world,
    observable_state,
    sends,
)

pytestmark = pytest.mark.chaos


INERT_COMPONENTS = (
    Corruption(0.0),
    Duplication(0.0),
    ReorderJitter(0.0),
    ReorderJitter(0.5, max_delay=0.0),
    GilbertElliott(),  # defaults cannot drop: p_enter_bad=0, loss_good=0
    Partition(start=5.0, duration=0.0),
    LatencySpike(start=1.0, duration=3.0, extra=0.0),
)


class TestZeroFaultBitIdentity:
    @given(st.lists(sends, min_size=1, max_size=25), st.sampled_from([0.0, 0.35]))
    @settings(max_examples=40, deadline=None)
    def test_inert_plan_changes_nothing(self, plan, loss):
        sim_a, net_a, recv_a, cap_a = build_world(loss)
        sim_b, net_b, recv_b, cap_b = build_world(loss)
        composed = net_b.set_link_faults(
            HOST_IPS[0], HOST_IPS[1], *INERT_COMPONENTS
        )
        assert composed.is_inert
        for packet, spoof in build_packets(plan):
            copy = packet.copy()
            (net_a.inject if spoof else net_a.transmit)(packet)
            (net_b.inject if spoof else net_b.transmit)(copy)
        sim_a.run()
        sim_b.run()
        state_a = observable_state(sim_a, net_a, recv_a, cap_a, net_a.hosts)
        state_b = observable_state(sim_b, net_b, recv_b, cap_b, net_b.hosts)
        assert state_a == state_b
        assert net_b.fault_stats().packets == 0  # no channel ever built

    def test_inert_plan_keeps_compiled_fast_paths(self):
        _, network, _, _ = build_world(0.0)
        network.set_link_faults(HOST_IPS[0], HOST_IPS[1], *INERT_COMPONENTS)
        pipeline = network.pipeline_for(HOST_IPS[0], HOST_IPS[1])
        assert pipeline.faults is None
        assert pipeline.address_sum is not None


class TestConservationLaws:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        corruption=st.sampled_from([0.0, 0.1, 0.5]),
        duplication=st.sampled_from([0.0, 0.15, 1.0]),
        p_enter_bad=st.sampled_from([0.0, 0.1, 0.4]),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_packet_accounted_for(
        self, seed, corruption, duplication, p_enter_bad
    ):
        # strict=True: the whole regime runs under the invariant guards.
        result = chaos_link_faults(
            seed=seed,
            packets=120,
            corruption=corruption,
            duplication=duplication,
            p_enter_bad=p_enter_bad,
            strict=True,
        )
        # Termination is implied by returning at all; the clock must have
        # reached at least the last send.
        assert result["final_time"] >= 119 * 0.25
        # Law 1: transmitted = fault-dropped + captured - duplicated.
        assert (
            result["captured"]
            == result["transmitted"] - result["fault_dropped"] + result["duplicated"]
        )
        # Law 2: corruption is caught by the real checksum verify — every
        # capture-observed corrupted delivery is a derived failure, and
        # nothing else fails.
        assert result["checksum_failures"] == result["corrupted_deliveries"]
        # Law 3: every delivery is either verified or rejected.
        assert (
            result["delivered"] + result["checksum_failures"] == result["captured"]
        )

    def test_determinism_same_seed_same_everything(self):
        a = chaos_link_faults(seed=42, packets=150)
        b = chaos_link_faults(seed=42, packets=150)
        assert a == b

    def test_certain_corruption_rejects_every_delivery(self):
        result = chaos_link_faults(
            seed=1,
            packets=80,
            corruption=1.0,
            duplication=0.0,
            p_enter_bad=0.0,
            reorder=0.0,
            partition_duration=0.0,
        )
        assert result["delivered"] == 0
        assert result["checksum_failures"] == 80
        assert result["captured"] == 80
        assert result["fault_dropped"] == 0

    def test_partition_heals(self):
        # Sends land every 0.25s; the partition blackholes [2.0, 4.0).
        result = chaos_link_faults(
            seed=0,
            packets=40,
            corruption=0.0,
            duplication=0.0,
            p_enter_bad=0.0,
            reorder=0.0,
            partition_start=2.0,
            partition_duration=2.0,
        )
        assert result["partition_dropped"] == 8  # sends at 2.0 .. 3.75
        assert result["delivered"] == 32


class TestUnverifiedHost:
    def test_unverified_host_gets_corruption(self):
        """A host that skips checksum verification receives the damage."""
        from repro.netsim import Network, OSProfile, PacketCapture, Simulator

        simulator = Simulator(seed=3, strict=True)
        network = Network(simulator)
        network.add_host("a", "10.0.0.1")
        receiver = network.add_host("b", "10.0.0.2")
        delivered = []
        receiver.bind(
            53, on_datagram=lambda payload, src, port: delivered.append(payload)
        )
        network.set_link_faults("10.0.0.1", "10.0.0.2", Corruption(1.0))
        # Switching verification off recompiles the pipelines; it must keep
        # the link's faults.
        receiver.profile = OSProfile(verify_udp_checksum=False)
        receiver.datapath.recompile()
        capture = PacketCapture()
        network.attach_capture(capture)
        source = network.host("10.0.0.1").bind(0)
        for index in range(10):
            source.sendto(b"payload-%02d" % index, "10.0.0.2", 53)
        simulator.run()
        assert len(delivered) == 10
        assert receiver.stats.udp_checksum_failures == 0
        # Every delivery really was corrupted — and got through.
        assert all(
            captured.packet.metadata.get("corrupted") for captured in capture.packets
        )
        assert sorted(delivered) != sorted(
            b"payload-%02d" % index for index in range(10)
        )
