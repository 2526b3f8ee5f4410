"""Unit tests for simulator burst entries and spray delivery."""

from __future__ import annotations

import pytest

from repro.netsim.errors import SimulationError
from repro.netsim.faults import ReorderJitter
from repro.netsim.host import OSProfile
from repro.netsim.network import Link, Network
from repro.netsim.packet import IPv4Packet
from repro.netsim.simulator import Simulator
from repro.netsim.udp import UDPDatagram, _UDP_HEADER, encode_udp


class Calls:
    """A test-local burst: ``callback(arg)`` for every ``arg``, in order."""

    def __init__(self, callback, args) -> None:
        self.callback = callback
        self.args = args
        self.count = len(args)

    def run(self) -> None:
        for arg in self.args:
            self.callback(arg)


class TestPostBurst:
    """``Simulator.post_burst_entry``: one heap entry, ``count`` events."""

    def test_burst_members_fire_in_order_with_neighbours(self):
        sim = Simulator()
        order = []
        sim.post(1.0, order.append, "before")
        sim.post_burst_entry(1.0, Calls(order.append, ["b1", "b2", "b3"]))
        sim.post(1.0, order.append, "after")
        sim.run()
        assert order == ["before", "b1", "b2", "b3", "after"]

    def test_burst_consumes_one_sequence_number_per_member(self):
        sim = Simulator()
        sim.post_burst_entry(1.0, Calls(lambda _: None, [1, 2, 3, 4]))
        assert sim.pending() == 4
        sim.run()
        assert sim.pending() == 0
        assert sim.events_processed == 4
        assert sim.bursts_posted == 1

    def test_empty_burst_schedules_nothing(self):
        sim = Simulator()
        sim.post_burst_entry(1.0, Calls(lambda _: None, []))
        assert sim.pending() == 0
        assert sim.bursts_posted == 0
        assert sim.run() == 0

    def test_single_member_burst_is_one_event(self):
        sim = Simulator()
        fired = []
        sim.post_burst_entry(1.0, Calls(fired.append, ["only"]))
        assert sim.pending() == 1
        sim.run()
        assert fired == ["only"]
        assert sim.events_processed == 1

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.post_burst_entry(-0.5, Calls(lambda _: None, [1]))

    def test_burst_is_atomic_under_max_events(self):
        sim = Simulator()
        fired = []
        sim.post_burst_entry(1.0, Calls(fired.append, [1, 2, 3]))
        processed = sim.run(max_events=1)
        # Bursts never split: the entry drains whole and counts 3.
        assert processed == 3
        assert fired == [1, 2, 3]

    def test_step_executes_whole_burst(self):
        sim = Simulator()
        fired = []
        sim.post_burst_entry(2.0, Calls(fired.append, ["x", "y"]))
        event = sim.step()
        assert fired == ["x", "y"]
        assert event is not None and event.time == 2.0
        assert sim.events_processed == 2

    def test_burst_members_can_post_more_work(self):
        sim = Simulator()
        fired = []

        def member(tag):
            fired.append(tag)
            if tag == "a":
                sim.post(0.0, fired.append, "child-of-a")

        sim.post_burst_entry(1.0, Calls(member, ["a", "b"]))
        sim.run()
        # The child fires after the rest of the burst (it got a later
        # sequence number), exactly as N singular posts would order it.
        assert fired == ["a", "b", "child-of-a"]

    def test_run_until_respects_burst_time(self):
        sim = Simulator()
        fired = []
        sim.post_burst_entry(5.0, Calls(fired.append, [1, 2]))
        sim.run(until=2.0)
        assert fired == []
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 2]

    def test_post_burst_entry_custom_object(self):
        class CountingBurst:
            count = 3

            def __init__(self):
                self.ran = 0

            def run(self):
                self.ran += 1

        sim = Simulator()
        burst = CountingBurst()
        sim.post_burst_entry(1.0, burst)
        assert sim.pending() == 3
        sim.run()
        assert burst.ran == 1
        assert sim.events_processed == 3


class TestCoalescedDrainCancellation:
    """Cancelled events inside a coalesced equal-timestamp run must be
    skipped without distorting events_processed or pending()."""

    def test_cancelled_mid_run_not_counted(self):
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, lambda: fired.append("first"))
        middle = sim.schedule(1.0, lambda: fired.append("middle"))
        last = sim.schedule(1.0, lambda: fired.append("last"))
        middle.cancel()
        processed = sim.run(until=2.0)
        assert fired == ["first", "last"]
        assert processed == 2
        assert sim.events_processed == 2
        assert sim.pending() == 0
        assert first.time == last.time == 1.0

    def test_callback_cancels_same_instant_event(self):
        """An event cancelling a later same-instant event mid-coalesced-run."""
        sim = Simulator()
        fired = []
        events = {}

        def first():
            fired.append("first")
            events["victim"].cancel()

        sim.schedule(1.0, first)
        events["victim"] = sim.schedule(1.0, lambda: fired.append("victim"))
        sim.schedule(1.0, lambda: fired.append("third"))
        sim.run(until=5.0)
        assert fired == ["first", "third"]
        assert sim.events_processed == 2
        assert sim.pending() == 0

    def test_trailing_cancelled_run_keeps_pending_exact(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        for _ in range(3):
            sim.schedule(1.0, lambda: None).cancel()
        sim.run(until=3.0)
        assert sim.events_processed == 1
        assert sim.pending() == 0


def star_world(count: int, latency: float = 0.01):
    sim = Simulator(seed=1)
    network = Network(sim, default_latency=latency)
    src = "192.0.2.1"
    network.add_host("sender", src)
    received = []
    packets = []
    for index in range(count):
        dst = f"203.0.113.{index + 1}"
        host = network.add_host(f"r{index}", dst)
        host.bind(
            4242,
            lambda payload, ip, port, _dst=dst: received.append((_dst, payload)),
        )
        payload = encode_udp(src, dst, UDPDatagram(5353, 4242, b"x" * 48))
        packets.append(IPv4Packet.udp(src, dst, payload, index & 0xFFFF))
    return sim, network, received, packets


def spray(network, packets) -> None:
    """``transmit_spray`` of the packets' datagrams from their one source:
    they share ports and payload, each keeps its own checksum field."""
    src_port, dst_port, _length, _checksum = _UDP_HEADER.unpack_from(packets[0].payload)
    payload = packets[0].payload[8:]
    assert all(packet.payload[8:] == payload for packet in packets)
    network.transmit_spray(
        packets[0].src,
        tuple(packet.dst for packet in packets),
        src_port,
        dst_port,
        payload,
        [_UDP_HEADER.unpack_from(packet.payload)[3] for packet in packets],
        [packet.ipid for packet in packets],
    )


class TestTransmitBurstDelivery:
    """A burst of packets, one ``transmit`` each, and the packet fallback of
    ``transmit_spray`` that sends them that way."""

    def test_spray_delivers_in_order(self):
        sim, network, received, packets = star_world(8)
        for packet in packets:
            network.transmit(packet)
        assert sim.pending() == 8
        sim.run()
        assert [dst for dst, _ in received] == [p.dst for p in packets]
        assert sim.events_processed == 8

    def test_mixed_latency_spray_splits_groups(self):
        sim, network, received, packets = star_world(4)
        # Middle destination gets a slower link: the spray is not uniform,
        # so it takes the packet fallback, and delivery follows arrival time.
        network.set_link("192.0.2.1", packets[1].dst, Link(latency=0.5))
        spray(network, packets)
        assert sim.bursts_posted == 0  # the packet fallback
        sim.run()
        fast = [p.dst for i, p in enumerate(packets) if i != 1]
        assert [dst for dst, _ in received] == fast + [packets[1].dst]

    def test_corrupted_checksum_counted_per_host(self):
        sim, network, received, packets = star_world(6)
        bad = packets[2]
        payload = encode_udp("9.9.9.9", bad.dst, UDPDatagram(5353, 4242, b"x" * 48))
        packets[2] = IPv4Packet.udp(bad.src, bad.dst, payload, 2)
        # A jittered link to the corrupted datagram's destination: the spray
        # takes the packet fallback through that pair's fault channel.
        network.set_link_faults(
            "192.0.2.1", bad.dst, ReorderJitter(1.0, max_delay=0.001)
        )
        spray(network, packets)
        assert sim.bursts_posted == 0  # the packet fallback
        sim.run()
        assert len(received) == 5
        assert network.host(bad.dst).stats.udp_checksum_failures == 1
        for index, packet in enumerate(packets):
            if index != 2:
                assert network.host(packet.dst).stats.udp_received == 1


class TestSprayVerifyDecision:
    def test_verify_switched_on_mid_flight_reaches_sprayed_datagrams(self):
        """A profile change announced by ``HostDatapath.recompile()`` while a
        spray is in flight applies to it, exactly as to injected packets:
        the drain reads the verify decision at delivery, not at plan
        compile time."""

        def run(use_spray: bool):
            sim, network, received, packets = star_world(3)
            receivers = [network.host(packet.dst) for packet in packets]
            for host in receivers:
                host.profile = OSProfile(verify_udp_checksum=False)
                host.datapath.recompile()
            corrupted = [
                IPv4Packet.udp(
                    "192.0.2.1",
                    packet.dst,
                    encode_udp("9.9.9.9", packet.dst, UDPDatagram(5353, 4242, b"y" * 48)),
                    packet.ipid,
                )
                for packet in packets
            ]
            if use_spray:
                spray(network, corrupted)
            else:
                for packet in corrupted:
                    network.inject(packet)
            for host in receivers:  # verification switched on mid-flight
                host.profile = OSProfile()
                host.datapath.recompile()
            sim.run()
            failures = [host.stats.udp_checksum_failures for host in receivers]
            return len(received), failures

        assert run(use_spray=True) == run(use_spray=False) == (0, [1, 1, 1])
