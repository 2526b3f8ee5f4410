"""Tests for the compiled delivery pipelines, checksum verification,
batched delivery, strict routing and pipeline stage attribution."""

import pytest

from repro.netsim.capture import PacketCapture
from repro.netsim.datapath import UNROUTED_PIPELINE
from repro.netsim.errors import NetSimError, NoRouteError, PacketError
from repro.netsim.host import OSProfile
from repro.netsim.network import (
    Link,
    Network,
    PIPELINE_CACHE_MAX_ENTRIES,
    SPRAY_PLAN_CACHE_MAX_ENTRIES,
)
from repro.netsim.packet import IPProtocol, IPv4Packet
from repro.netsim.simulator import Simulator
from repro.netsim.udp import UDPDatagram, encode_udp, udp_checksum_arith
from repro.perf import STAGES


def make_net(**network_kwargs):
    sim = Simulator(seed=7)
    net = Network(sim, default_latency=0.01, **network_kwargs)
    a = net.add_host("a", "10.0.0.1")
    b = net.add_host("b", "10.0.0.2")
    return sim, net, a, b


def spray_udp(net, src, destinations, src_port, dst_port, payload, ipids) -> None:
    """``transmit_spray`` of one payload, each datagram under the valid
    checksum of its pair."""
    net.transmit_spray(
        src,
        tuple(destinations),
        src_port,
        dst_port,
        payload,
        [
            udp_checksum_arith(src, dst, src_port, dst_port, payload)
            for dst in destinations
        ],
        list(ipids),
    )


def corrupted_packet(src: str, dst: str) -> IPv4Packet:
    """A UDP packet whose checksum was computed for a different source."""
    datagram = UDPDatagram(src_port=53, dst_port=53, payload=b"forged")
    payload = encode_udp("9.9.9.9", dst, datagram)
    return IPv4Packet(src=src, dst=dst, protocol=IPProtocol.UDP, payload=payload)


class TestChecksumVerification:
    def test_default_link_drops_bad_checksum(self):
        sim, net, a, b = make_net()
        received = []
        b.bind(53, lambda payload, ip, port: received.append(payload))
        net.inject(corrupted_packet("10.0.0.1", "10.0.0.2"))
        sim.run()
        assert received == []
        assert b.stats.udp_checksum_failures == 1

    def test_non_verifying_host_skips_verify(self):
        sim, net, a, _ = make_net()
        c = net.add_host("c", "10.0.0.3", profile=OSProfile(verify_udp_checksum=False))
        received = []
        c.bind(53, lambda payload, ip, port: received.append(payload))
        net.inject(corrupted_packet("10.0.0.1", "10.0.0.3"))
        sim.run()
        # Delivered despite the bad checksum: the host does not verify.
        assert received == [b"forged"]
        assert c.stats.udp_checksum_failures == 0

    def test_non_verifying_host_reassembles(self):
        sim, net, a, _ = make_net()
        c = net.add_host("c", "10.0.0.3", profile=OSProfile(verify_udp_checksum=False))
        received = []
        c.bind(53, lambda payload, ip, port: received.append(payload))
        from repro.netsim.icmp import frag_needed

        message = frag_needed(296)
        message.metadata["about_destination"] = "10.0.0.3"
        a._handle_icmp(message, "10.0.0.99")
        payload = bytes(range(256)) * 4
        a.bind(0).sendto(payload, "10.0.0.3", 53)
        sim.run()
        assert received == [payload]
        assert c.defrag.stats.packets_reassembled == 1


class TestStrictRouting:
    def test_default_network_silently_drops_unknown_destination(self):
        sim, net, a, _ = make_net()
        a.bind(0).sendto(b"x", "172.16.0.1", 53)
        sim.run()
        assert net.packets_dropped == 1

    def test_strict_network_raises_typed_error(self):
        sim, net, a, _ = make_net(strict_routing=True)
        socket = a.bind(0)
        with pytest.raises(NoRouteError):
            socket.sendto(b"x", "172.16.0.1", 53)

    def test_strict_error_is_a_netsim_error_not_a_keyerror(self):
        _, net, _, _ = make_net(strict_routing=True)
        packet = IPv4Packet(
            src="10.0.0.1", dst="172.16.0.1", protocol=IPProtocol.UDP, payload=b""
        )
        try:
            net.transmit(packet)
        except NetSimError:
            pass  # the typed hierarchy, as required
        except KeyError:  # pragma: no cover - the regression this guards
            pytest.fail("unknown destination raised KeyError, not NetSimError")
        else:
            pytest.fail("strict routing did not raise for an unknown destination")

    def test_strict_batch_raises_too(self):
        """A spray with an unrouted destination takes the packet fallback,
        which raises at that datagram after sending the ones before it;
        the raised datagram does not count as sent."""
        sim, net, _, b = make_net(strict_routing=True)
        received = []
        b.bind(53, lambda payload, ip, port: received.append(payload))
        destinations = ("10.0.0.2", "172.16.0.1", "10.0.0.2")
        with pytest.raises(NoRouteError):
            spray_udp(net, "10.0.0.1", destinations, 4000, 53, b"x", [1, 2, 3])
        sim.run()
        assert received == [b"x"]
        assert net.packets_transmitted == 1

    def test_caught_no_route_keeps_the_packet_laws(self):
        sim, net, a, b = make_net(strict_routing=True)
        sim.strict = True
        received = []
        b.bind(53, lambda payload, ip, port: received.append(payload))
        socket = a.bind(0)
        with pytest.raises(NoRouteError):
            socket.sendto(b"x", "172.16.0.1", 53)
        socket.sendto(b"y", "10.0.0.2", 53)
        sim.run()
        assert received == [b"y"]
        assert net.packets_transmitted == 1


class TestPipelineCache:
    def test_pipeline_for_unknown_destination_raises(self):
        _, net, _, _ = make_net()
        with pytest.raises(NoRouteError):
            net.pipeline_for("10.0.0.1", "172.16.0.1")

    def test_pipeline_cached_and_reused(self):
        _, net, _, _ = make_net()
        first = net.pipeline_for("10.0.0.1", "10.0.0.2")
        assert net.pipeline_for("10.0.0.1", "10.0.0.2") is first

    def test_set_link_invalidates_compiled_pipeline(self):
        sim, net, a, b = make_net()
        arrivals = []
        b.bind(53, lambda payload, ip, port: arrivals.append(sim.now))
        a.bind(4000).sendto(b"x", "10.0.0.2", 53)
        sim.run()
        net.set_link("10.0.0.1", "10.0.0.2", Link(latency=0.5))
        a.bind(4001).sendto(b"x", "10.0.0.2", 53)
        sim.run()
        assert arrivals[0] == pytest.approx(0.01)
        # Second send left at t=0.01 over the re-compiled 0.5 s link.
        assert arrivals[1] == pytest.approx(0.51)

    def test_add_host_invalidates_unrouted_entry(self):
        sim, net, a, _ = make_net()
        a.bind(4000).sendto(b"x", "10.0.0.3", 53)
        sim.run()
        assert net.packets_dropped == 1
        # Register the host afterwards: the cached drop entry must not stick.
        c = net.add_host("c", "10.0.0.3")
        received = []
        c.bind(53, lambda payload, ip, port: received.append(payload))
        a.bind(4001).sendto(b"x", "10.0.0.3", 53)
        sim.run()
        assert received == [b"x"]

    def test_pipeline_cache_bounded(self):
        _, net, _, _ = make_net()
        limit = PIPELINE_CACHE_MAX_ENTRIES
        # Simulate a spoofing sweep over unique claimed sources.
        net._pipelines.clear()
        for index in range(limit + 10):
            net._compile_pipeline(f"src-{index}", "10.0.0.2")
        assert len(net._pipelines) <= limit

    def test_spray_plan_cache_bounded(self):
        _, net, _, _ = make_net()
        # A spoofing sweep over unique claimed sources, one plan each.
        for index in range(SPRAY_PLAN_CACHE_MAX_ENTRIES + 10):
            net._compile_spray_plan(f"src-{index}", ("10.0.0.2",))
        assert len(net._spray_plans) <= SPRAY_PLAN_CACHE_MAX_ENTRIES

    def test_unrouted_pipeline_is_shared(self):
        _, net, _, _ = make_net()
        net._compile_pipeline("10.0.0.1", "172.16.0.9")
        assert net._pipelines[("10.0.0.1", "172.16.0.9")] is UNROUTED_PIPELINE

    def test_negative_latency_rejected(self):
        _, net, _, _ = make_net()
        from repro.netsim.errors import SimulationError

        with pytest.raises(SimulationError):
            net.set_link("10.0.0.1", "10.0.0.2", Link(latency=-0.1))


class TestBatchedDelivery:
    """The packet fallback of ``transmit_spray``: one ``inject`` per
    datagram."""

    def _spray(self, net, destinations):
        spray_udp(
            net, "10.0.0.1", destinations, 4000, 53, b"ping", range(len(destinations))
        )

    def test_spray_fallback_counts_and_delivers(self):
        sim, net, a, b = make_net()
        received = []
        b.bind(53, lambda payload, ip, port: received.append(payload))
        self._spray(net, ["10.0.0.2"] * 8 + ["172.16.0.1"])  # the last is unrouted
        assert sim.bursts_posted == 0  # the packet fallback
        sim.run()
        assert received == [b"ping"] * 8
        assert net.packets_transmitted == 9
        assert net.packets_dropped == 1

    @pytest.mark.parametrize("capture", [False, True])
    @pytest.mark.parametrize("ports", [(70000, 53), (4000, -1)])
    def test_out_of_range_ports_raise_on_both_paths(self, capture, ports):
        """Both paths refuse a port no UDP header can carry, before
        anything counts as sent."""
        sim, net, a, b = make_net()
        if capture:
            net.attach_capture(PacketCapture())
        received = []
        b.bind(53, lambda payload, ip, port: received.append(port))
        with pytest.raises(PacketError, match="port out of range"):
            net.transmit_spray(
                "10.0.0.1", ("10.0.0.2",), *ports, b"ping", [0], [1]
            )
        sim.run()
        assert received == [] and net.packets_transmitted == 0

    def test_spray_fallback_marks_spoofed(self):
        sim, net, a, b = make_net()
        capture = PacketCapture(name="spoofed")
        net.attach_capture(capture)  # a capture forces the packet fallback
        self._spray(net, ["10.0.0.2"] * 3)
        assert len(capture.packets) == 3
        assert all(c.packet.metadata["spoofed"] for c in capture.packets)


class TestStageAttribution:
    """A socket send that fits its path MTU travels in a batch and drains as
    ``burst_drain`` + ``handler``; only materialised packets (fragments,
    deliveries to a tapped host) reach ``HostDatapath.deliver``, which
    times the ``defrag``, ``checksum``, ``demux`` and ``handler`` stages."""

    def test_pipeline_stages_counted_when_enabled(self):
        """Exact per-delivery stage counts for both packet inputs — the two
        fragments of an oversized send, and a spray whose second datagram
        is materialised for a tapped host — and the same observations with
        the counters on or off."""
        stage_names = ("burst_drain", "defrag", "checksum", "demux", "handler")

        def run(enable):
            STAGES.reset()
            if enable:
                STAGES.enable()
            try:
                sim, net, a, b = make_net()
                c = net.add_host("c", "10.0.0.3")
                received, tapped = [], []
                for host in (b, c):
                    host.bind(
                        53,
                        lambda payload, ip, port, _to=host.ip: received.append(
                            (_to, ip, port, payload)
                        ),
                    )
                c.packet_tap = lambda packet: tapped.append(
                    (
                        packet.src,
                        packet.payload,
                        packet.ipid,
                        packet.metadata.get("spoofed"),
                    )
                )
                a.interface_mtu = 576  # the send below leaves as two fragments
                a.bind(4000).sendto(b"hello" * 200, "10.0.0.2", 53)
                sim.run()
                calls = [STAGES.merged()[1]]
                STAGES.reset()
                destinations = ("10.0.0.2", "10.0.0.3")
                spray_udp(net, "10.0.0.1", destinations, 4001, 53, b"spray", [5, 6])
                sim.run()
                calls.append(STAGES.merged()[1])
                stats = [
                    (
                        host.stats.udp_received,
                        host.stats.udp_checksum_failures,
                        host.stats.packets_fragmented,
                        host.defrag.stats.packets_reassembled,
                    )
                    for host in (a, b, c)
                ]
                stages = [
                    {name: n for name, n in run_calls.items() if name in stage_names}
                    for run_calls in calls
                ]
                return received, tapped, stats, stages
            finally:
                STAGES.disable()
                STAGES.reset()

        received, tapped, stats, (fragmented, sprayed) = run(True)
        assert (received, tapped, stats) == run(False)[:3]
        assert received == [
            ("10.0.0.2", "10.0.0.1", 4000, b"hello" * 200),
            ("10.0.0.2", "10.0.0.1", 4001, b"spray"),
            ("10.0.0.3", "10.0.0.1", 4001, b"spray"),
        ]
        sprayed_to_c = encode_udp(
            "10.0.0.1", "10.0.0.3", UDPDatagram(4001, 53, b"spray")
        )
        assert tapped == [("10.0.0.1", sprayed_to_c, 6, True)]
        assert stats[0][2] == 1  # a fragmented the send
        # Two fragment deliveries pass defrag; the reassembled datagram is
        # checked, demuxed and handled once.
        assert fragmented == {"defrag": 2, "checksum": 1, "demux": 1, "handler": 1}
        # The drain counts both datagrams and handles the untapped one; the
        # tapped one is one full datapath delivery.
        assert sprayed == {
            "burst_drain": 2,
            "defrag": 1,
            "checksum": 1,
            "demux": 1,
            "handler": 2,
        }

    def test_stages_not_counted_when_disabled(self):
        STAGES.reset()
        sim, net, a, b = make_net()
        b.bind(53)
        a.bind(4000).sendto(b"hello", "10.0.0.2", 53)
        sim.run()
        times, _calls = STAGES.merged()
        assert "checksum" not in times
        assert "burst_drain" not in times
        STAGES.reset()

    def test_reset_after_build_keeps_pipeline_stages(self):
        """STAGES.reset() after topology construction must not lose the
        delivery stages of datapaths compiled before it."""
        sim, net, a, b = make_net()
        b.bind(53, lambda payload, ip, port: None)
        STAGES.reset()  # after hosts exist — the manual-use flow
        STAGES.enable()
        try:
            a.bind(4000).sendto(b"hello", "10.0.0.2", 53)
            sim.run()
            _times, calls = STAGES.merged()
        finally:
            STAGES.disable()
            STAGES.reset()
        assert calls.get("burst_drain") == 1, calls
        assert calls.get("handler") == 1, calls

    def test_stage_attribution_survives_gc_before_read(self):
        """Host/datapath pairs are reference cycles; a cyclic-GC pass
        between simulation teardown and merged() must not drop the
        delivery stage counters."""
        import gc

        STAGES.reset()
        STAGES.enable()
        try:
            def run_and_discard():
                sim, net, a, b = make_net()
                b.bind(53, lambda payload, ip, port: None)
                a.bind(4000).sendto(b"hello", "10.0.0.2", 53)
                sim.run()

            run_and_discard()
            gc.collect()  # the world is garbage now; attribution must not be
            _times, calls = STAGES.merged()
        finally:
            STAGES.disable()
            STAGES.reset()
        assert calls.get("burst_drain") == 1, calls
        assert calls.get("handler") == 1, calls

    def test_spray_drain_attributed_to_burst_drain_and_handler(self):
        """A uniform spray round to N hosts is one ``burst_drain`` call per
        datagram plus one ``handler`` call per handled datagram; a socket
        send next to it drains the same way, so no datapath stage runs."""
        count = 6

        def run(enable):
            STAGES.reset()
            if enable:
                STAGES.enable()
            try:
                sim, net, a, b = make_net()
                received = []

                def record(host_ip):
                    return lambda payload, src, port: received.append(
                        (host_ip, src, payload)
                    )

                b.bind(53, record("10.0.0.2"))
                destinations = []
                for index in range(count):
                    ip = f"10.0.1.{index + 1}"
                    net.add_host(f"v{index}", ip).bind(123, record(ip))
                    destinations.append(ip)
                spray_udp(
                    net, "10.0.0.1", destinations, 123, 123, b"\x07" * 48, range(count)
                )
                a.bind(4000).sendto(b"hello", "10.0.0.2", 53)
                sim.run()
                stats = [
                    (host.stats.udp_received, host.stats.udp_checksum_failures)
                    for host in (net.host(ip) for ip in ["10.0.0.2", *destinations])
                ]
                return received, stats, STAGES.merged()[1]
            finally:
                STAGES.disable()
                STAGES.reset()

        received, stats, calls = run(True)
        assert (received, stats) == run(False)[:2]
        assert len(received) == count + 1
        assert calls["burst_drain"] == count + 1
        assert calls["handler"] == count + 1
        for name in ("defrag", "checksum", "demux"):
            assert name not in calls, calls

    def test_instrumented_run_matches_uninstrumented_counters(self):
        def run(enable):
            STAGES.reset()
            if enable:
                STAGES.enable()
            try:
                sim, net, a, b = make_net()
                received = []
                b.bind(53, lambda payload, ip, port: received.append(payload))
                for index in range(10):
                    a.bind(0).sendto(b"x" * index, "10.0.0.2", 53)
                net.inject(corrupted_packet("10.0.0.1", "10.0.0.2"))
                sim.run()
                return received, b.stats.udp_received, b.stats.udp_checksum_failures
            finally:
                STAGES.disable()
                STAGES.reset()

        assert run(False) == run(True)
