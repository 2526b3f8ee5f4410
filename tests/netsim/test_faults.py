"""Unit tests for the deterministic fault-injection layer.

The property suite (``tests/properties/test_prop_faults.py``) pins the
behavioural laws — zero-fault bit-identity, conservation of packets,
corruption caught by the real checksum verify.  This file covers the
component/plan/channel mechanics and the network wiring.
"""

from __future__ import annotations

import pytest

from repro.netsim import (
    Corruption,
    Duplication,
    FaultChannel,
    FaultPlan,
    GilbertElliott,
    LatencySpike,
    Network,
    OSProfile,
    Partition,
    ReorderJitter,
    Simulator,
)
from repro.netsim.errors import FaultConfigError, InvariantViolation
from repro.netsim.packet import IPv4Packet
from repro.netsim.udp import UDP_HEADER_LEN


def make_packet(body: bytes = b"x" * 24) -> IPv4Packet:
    payload = b"\x00" * UDP_HEADER_LEN + body
    return IPv4Packet.udp("10.0.0.1", "10.0.0.2", payload, 7)


class TestComponents:
    def test_probability_bounds_enforced(self):
        with pytest.raises(FaultConfigError):
            Corruption(1.5)
        with pytest.raises(FaultConfigError):
            ReorderJitter(-0.1)
        with pytest.raises(FaultConfigError):
            GilbertElliott(p_enter_bad=2.0)
        with pytest.raises(FaultConfigError):
            Duplication(probability=0.5, max_delay=-1.0)
        with pytest.raises(FaultConfigError):
            Partition(start=-1.0)
        with pytest.raises(FaultConfigError):
            LatencySpike(extra=-0.5)

    def test_active_reflects_whether_component_can_fire(self):
        assert not Corruption(0.0).active
        assert Corruption(0.1).active
        assert not ReorderJitter(0.5, max_delay=0.0).active
        assert not Duplication(0.0).active
        assert not Partition(5.0, 0.0).active
        assert Partition(5.0, 1.0).active
        assert not LatencySpike(1.0, 1.0, extra=0.0).active
        # A GE chain that can never leave the good state with zero good
        # loss can never drop anything.
        assert not GilbertElliott(p_enter_bad=0.0, loss_good=0.0).active
        assert GilbertElliott(p_enter_bad=0.2).active

    def test_partition_window_semantics(self):
        window = Partition(start=10.0, duration=5.0)
        assert window.end == 15.0
        assert not window.covers(9.999)
        assert window.covers(10.0)
        assert window.covers(14.999)
        assert not window.covers(15.0)  # heal time is exclusive


class TestFaultPlan:
    def test_groups_components_by_kind(self):
        plan = FaultPlan(
            Corruption(0.1),
            Partition(1.0, 2.0),
            GilbertElliott(p_enter_bad=0.1),
            ReorderJitter(0.2, 0.05),
            Duplication(0.3),
            LatencySpike(5.0, 1.0, 0.4),
        )
        assert len(plan.partitions) == 1
        assert len(plan.loss_models) == 1
        assert len(plan.corruptions) == 1
        assert len(plan.spikes) == 1
        assert len(plan.jitters) == 1
        assert len(plan.duplications) == 1
        assert not plan.is_inert

    def test_inert_components_discarded(self):
        plan = FaultPlan(Corruption(0.0), Partition(3.0, 0.0), Duplication(0.0))
        assert plan.is_inert
        assert plan.corruptions == ()
        assert FaultPlan().is_inert

    def test_rejects_non_components(self):
        with pytest.raises(FaultConfigError):
            FaultPlan(0.5)


class TestFaultChannel:
    def channel(self, *components, seed: int = 1, name: str = "t") -> FaultChannel:
        simulator = Simulator(seed=seed)
        return FaultChannel(
            FaultPlan(*components), simulator.spawn_named_rng(name)
        )

    def test_partition_drops_deterministically(self):
        channel = self.channel(Partition(10.0, 5.0))
        packet = make_packet()
        assert channel.process(packet, 12.0) == []
        assert channel.process(packet, 9.0) == [(0.0, packet)]
        assert channel.process(packet, 15.0) == [(0.0, packet)]
        assert channel.stats.dropped_partition == 1
        assert channel.stats.packets == 3

    def test_corruption_flips_copy_not_original(self):
        channel = self.channel(Corruption(1.0))
        packet = make_packet()
        original = packet.payload
        [(extra, delivered)] = channel.process(packet, 0.0)
        assert extra == 0.0
        assert delivered is not packet
        assert packet.payload == original  # sender's object untouched
        assert delivered.metadata.get("corrupted") is True
        # Exactly one bit differs, and it lands past the UDP header so the
        # RFC 768 checksum is guaranteed to catch it.
        diffs = [
            index
            for index, (a, b) in enumerate(zip(original, delivered.payload))
            if a != b
        ]
        assert len(diffs) == 1
        assert diffs[0] >= UDP_HEADER_LEN
        assert bin(original[diffs[0]] ^ delivered.payload[diffs[0]]).count("1") == 1
        assert channel.stats.corrupted == 1

    def test_corruption_skips_empty_payload(self):
        channel = self.channel(Corruption(1.0))
        packet = IPv4Packet.udp("10.0.0.1", "10.0.0.2", b"", 7)
        [(_, delivered)] = channel.process(packet, 0.0)
        assert delivered is packet
        assert channel.stats.corrupted == 0

    def test_duplication_yields_second_delivery(self):
        channel = self.channel(Duplication(1.0, max_delay=0.5))
        packet = make_packet()
        deliveries = channel.process(packet, 0.0)
        assert len(deliveries) == 2
        assert deliveries[0][1] is packet
        assert deliveries[1][1] is packet
        assert deliveries[1][0] >= deliveries[0][0]
        assert channel.stats.duplicated == 1

    def test_gilbert_elliott_bursty_loss(self):
        # Certain entry into a certain-loss bad state with no exit: the
        # first packet transitions good->bad and every packet drops.
        channel = self.channel(
            GilbertElliott(p_enter_bad=1.0, p_exit_bad=0.0, loss_bad=1.0)
        )
        packet = make_packet()
        for _ in range(5):
            assert channel.process(packet, 0.0) == []
        assert channel.stats.dropped_loss == 5

    def test_spike_adds_constant_extra_inside_window(self):
        channel = self.channel(LatencySpike(1.0, 2.0, extra=0.25))
        packet = make_packet()
        assert channel.process(packet, 0.5) == [(0.0, packet)]
        assert channel.process(packet, 1.5) == [(0.25, packet)]
        assert channel.stats.spike_delayed == 1

    def test_jitter_adds_bounded_random_extra(self):
        channel = self.channel(ReorderJitter(1.0, max_delay=0.05))
        packet = make_packet()
        [(extra, _)] = channel.process(packet, 0.0)
        assert 0.0 <= extra < 0.05
        assert channel.stats.reordered == 1

    def test_same_seed_same_decisions(self):
        components = (
            GilbertElliott(p_enter_bad=0.3, p_exit_bad=0.3, loss_bad=0.7),
            Corruption(0.3),
            Duplication(0.3),
            ReorderJitter(0.3),
        )
        results = []
        for _ in range(2):
            channel = self.channel(*components, seed=9, name="pair")
            trace = []
            for index in range(50):
                deliveries = channel.process(make_packet(), float(index))
                trace.append(
                    [(extra, delivered.payload) for extra, delivered in deliveries]
                )
            results.append(trace)
        assert results[0] == results[1]


class TestNetworkWiring:
    def build(self):
        simulator = Simulator(seed=4)
        network = Network(simulator)
        network.add_host("a", "10.0.0.1")
        network.add_host("b", "10.0.0.2").bind(53, on_datagram=lambda *a: None)
        return simulator, network

    def test_set_link_faults_preserves_link_parameters(self):
        from repro.netsim.network import Link

        _, network = self.build()
        network.set_link("10.0.0.1", "10.0.0.2", Link(latency=0.5, mtu=600))
        plan = network.set_link_faults("10.0.0.1", "10.0.0.2", Corruption(0.2))
        link = network.link_between("10.0.0.1", "10.0.0.2")
        assert link.latency == 0.5
        assert link.mtu == 600
        assert link.faults is plan

    def test_inert_plan_normalised_to_no_faults(self):
        _, network = self.build()
        plan = network.set_link_faults("10.0.0.1", "10.0.0.2", Corruption(0.0))
        assert plan.is_inert
        assert network.link_between("10.0.0.1", "10.0.0.2").faults is None
        pipeline = network.pipeline_for("10.0.0.1", "10.0.0.2")
        assert pipeline.faults is None

    def test_empty_call_clears_faults(self):
        _, network = self.build()
        network.set_link_faults("10.0.0.1", "10.0.0.2", Corruption(0.5))
        network.set_link_faults("10.0.0.1", "10.0.0.2")
        assert network.link_between("10.0.0.1", "10.0.0.2").faults is None

    def test_channel_materialises_per_direction_and_survives_invalidation(self):
        _, network = self.build()
        network.set_link_faults("10.0.0.1", "10.0.0.2", Corruption(0.2))
        assert network.fault_channel("10.0.0.1", "10.0.0.2") is None
        network.pipeline_for("10.0.0.1", "10.0.0.2")
        channel = network.fault_channel("10.0.0.1", "10.0.0.2")
        assert channel is not None
        # The reverse direction carries the same plan but its own channel.
        network.pipeline_for("10.0.0.2", "10.0.0.1")
        reverse = network.fault_channel("10.0.0.2", "10.0.0.1")
        assert reverse is not None and reverse is not channel
        # Pipeline invalidation must NOT reset channel state.
        network.invalidate_pipelines()
        network.pipeline_for("10.0.0.1", "10.0.0.2")
        assert network.fault_channel("10.0.0.1", "10.0.0.2") is channel

    def test_replacing_plan_starts_fresh_channel(self):
        _, network = self.build()
        network.set_link_faults("10.0.0.1", "10.0.0.2", Corruption(0.2))
        network.pipeline_for("10.0.0.1", "10.0.0.2")
        first = network.fault_channel("10.0.0.1", "10.0.0.2")
        network.set_link_faults("10.0.0.1", "10.0.0.2", Corruption(0.4))
        network.pipeline_for("10.0.0.1", "10.0.0.2")
        second = network.fault_channel("10.0.0.1", "10.0.0.2")
        assert second is not first

    def test_fault_stats_aggregates_channels(self):
        simulator, network = self.build()
        network.set_link_faults(
            "10.0.0.1", "10.0.0.2", Partition(0.0, 1000.0)
        )
        source = network.host("10.0.0.1").bind(0)
        for _ in range(5):
            source.sendto(b"hello", "10.0.0.2", 53)
        simulator.run()
        stats = network.fault_stats()
        assert stats.dropped_partition == 5
        assert stats.dropped == 5
        assert network.packets_dropped == 5


class TestStrictSimulator:
    def test_strict_run_matches_default_run(self):
        def world(strict: bool):
            simulator = Simulator(seed=2, strict=strict)
            network = Network(simulator)
            network.add_host("a", "10.0.0.1")
            received = []
            network.add_host("b", "10.0.0.2").bind(
                53, on_datagram=lambda payload, src, port: received.append(payload)
            )
            source = network.host("10.0.0.1").bind(0)

            def send(i: int) -> None:
                source.sendto(b"m%d" % i, "10.0.0.2", 53)

            for index in range(20):
                simulator.post(index * 0.1, send, index)
            processed = simulator.run()
            return processed, simulator.now, simulator.events_processed, received

        assert world(True) == world(False)

    def test_check_invariants_passes_after_clean_run(self):
        simulator = Simulator(seed=0, strict=True)
        simulator.post(1.0, lambda _: None, 1)
        simulator.run()
        simulator.check_invariants()

    def test_check_invariants_detects_time_travel(self):
        import heapq

        simulator = Simulator(seed=0)
        simulator.post(1.0, lambda _: None, 1)
        simulator.run()
        # Tamper: an entry scheduled before the current clock.
        from repro.netsim.simulator import _EVENT, _NO_ARG

        heapq.heappush(
            simulator._queue, (simulator.now - 0.5, simulator._sequence, _EVENT, _NO_ARG)
        )
        with pytest.raises(InvariantViolation):
            simulator.check_invariants()

    def test_check_invariants_detects_accounting_mismatch(self):
        simulator = Simulator(seed=0, strict=True)
        simulator.post(1.0, lambda _: None, 1)
        simulator.run()
        simulator.events_processed += 1  # tamper with the ledger
        with pytest.raises(InvariantViolation):
            simulator.check_invariants()

    def _packet_world(self):
        """A strict world whose sends take every delivery kind: a batched
        datagram, fragments, a duplicated packet over a faulted link and
        fragments a filtering host drops."""
        simulator = Simulator(seed=0, strict=True)
        network = Network(simulator, default_latency=1.0)
        source = network.add_host("a", "10.0.0.1").bind(0)
        network.add_host("b", "10.0.0.2")
        network.add_host("c", "10.0.0.3", profile=OSProfile.fragment_filtering())
        network.set_link_faults("10.0.0.1", "10.0.0.3", Duplication(1.0))
        source.sendto(b"batched", "10.0.0.2", 53)
        source.sendto(bytes(3000), "10.0.0.2", 53)
        source.sendto(b"duplicated", "10.0.0.3", 53)
        source.sendto(bytes(3000), "10.0.0.3", 53)
        return simulator, network

    def test_packet_laws_hold_in_flight_and_after_delivery(self):
        simulator, network = self._packet_world()
        simulator.run(until=0.5)  # every delivery still queued
        simulator.run()
        assert network.fault_stats().duplicated == 4  # 1 datagram + 3 fragments
        assert network.host("10.0.0.3").stats.fragments_filtered == 6

    def test_packet_laws_detect_a_lost_packet(self):
        simulator, network = self._packet_world()
        simulator.run()
        network.packets_transmitted += 1  # a send that neither arrived nor dropped
        with pytest.raises(InvariantViolation, match="packets not conserved"):
            simulator.check_invariants()

    def test_packet_laws_detect_accepted_corruption(self):
        simulator, network = self._packet_world()
        simulator.run()
        network.host("10.0.0.2").stats.corrupted_accepted += 1
        with pytest.raises(InvariantViolation, match="corrupted"):
            simulator.check_invariants()

    def test_spawn_named_rng_is_pure_and_does_not_shift_streams(self):
        a = Simulator(seed=7)
        b = Simulator(seed=7)
        # Same (seed, name) -> same stream, regardless of spawn history.
        a.spawn_rng()
        draws_a = a.spawn_named_rng("faults:x>y").random(4).tolist()
        draws_b = b.spawn_named_rng("faults:x>y").random(4).tolist()
        assert draws_a == draws_b
        # And a named spawn never perturbs the anonymous spawn sequence.
        follow_a = a.spawn_rng().random(4).tolist()
        b.spawn_rng()
        follow_b = b.spawn_rng().random(4).tolist()
        assert follow_a == follow_b
        assert a.spawn_named_rng("other").random(2).tolist() != draws_a[:2]
