"""Tests for the network fabric: delivery, links, captures, injection."""

import pytest

from repro.netsim.capture import PacketCapture
from repro.netsim.errors import NoRouteError
from repro.netsim.network import Link, Network
from repro.netsim.packet import IPProtocol, IPv4Packet
from repro.netsim.simulator import Simulator
from repro.netsim.udp import UDPDatagram, encode_udp


def make_net():
    sim = Simulator(seed=2)
    net = Network(sim, default_latency=0.01)
    a = net.add_host("a", "10.0.0.1")
    b = net.add_host("b", "10.0.0.2")
    return sim, net, a, b


class TestTopology:
    def test_duplicate_address_rejected(self):
        _, net, _, _ = make_net()
        with pytest.raises(NoRouteError):
            net.add_host("dup", "10.0.0.1")

    def test_host_lookup(self):
        _, net, a, _ = make_net()
        assert net.host("10.0.0.1") is a
        assert net.has_host("10.0.0.2")
        assert not net.has_host("10.0.0.99")
        with pytest.raises(NoRouteError):
            net.host("10.0.0.99")

    def test_hosts_listing(self):
        _, net, _, _ = make_net()
        assert len(net.hosts()) == 2


class TestDelivery:
    def test_latency_applied(self):
        sim, net, a, b = make_net()
        net.set_link("10.0.0.1", "10.0.0.2", Link(latency=0.5))
        arrivals = []
        b.bind(53, lambda payload, ip, port: arrivals.append(sim.now))
        a.bind(0).sendto(b"x", "10.0.0.2", 53)
        sim.run()
        assert arrivals == [pytest.approx(0.5)]

    def test_packet_to_unknown_destination_dropped(self):
        sim, net, a, _ = make_net()
        a.bind(0).sendto(b"x", "172.16.0.1", 53)
        sim.run()
        assert net.packets_dropped == 1

    def test_lossy_link_drops_packets(self):
        sim, net, a, b = make_net()
        net.set_link("10.0.0.1", "10.0.0.2", Link(latency=0.01, loss_probability=1.0))
        received = []
        b.bind(53, lambda payload, ip, port: received.append(payload))
        a.bind(0).sendto(b"x", "10.0.0.2", 53)
        sim.run()
        assert received == []
        assert net.packets_dropped == 1

    def test_default_link_used_when_not_overridden(self):
        _, net, _, _ = make_net()
        link = net.link_between("10.0.0.1", "10.0.0.2")
        assert link is net.default_link


class TestCapturesAndInjection:
    def test_capture_records_delivered_packets(self):
        sim, net, a, b = make_net()
        capture = PacketCapture(name="test")
        net.attach_capture(capture)
        b.bind(53)
        a.bind(0).sendto(b"x", "10.0.0.2", 53)
        sim.run()
        assert len(capture) == 1
        assert capture.between("10.0.0.1", "10.0.0.2")[0].packet.dst == "10.0.0.2"

    def test_capture_filter(self):
        sim, net, a, b = make_net()
        capture = PacketCapture(capture_filter=lambda p: p.dst == "10.0.0.99")
        net.attach_capture(capture)
        b.bind(53)
        a.bind(0).sendto(b"x", "10.0.0.2", 53)
        sim.run()
        assert len(capture) == 0

    def test_injected_spoofed_packet_delivered_and_marked(self):
        sim, net, a, b = make_net()
        received = []
        b.bind(53, lambda payload, ip, port: received.append((payload, ip)))
        datagram = UDPDatagram(src_port=53, dst_port=53, payload=b"spoofed")
        payload = encode_udp("10.0.0.1", "10.0.0.2", datagram)
        packet = IPv4Packet(
            src="10.0.0.1", dst="10.0.0.2", protocol=IPProtocol.UDP, payload=payload
        )
        net.inject(packet)
        sim.run()
        # Delivered as if it came from the spoofed source...
        assert received == [(b"spoofed", "10.0.0.1")]
        # ...while ground truth records it was injected.
        assert packet.metadata["spoofed"] is True

    def test_capture_clear(self):
        capture = PacketCapture()
        capture.observe(
            IPv4Packet(src="1.1.1.1", dst="2.2.2.2", protocol=IPProtocol.UDP, payload=b""),
            time=0.0,
        )
        capture.clear()
        assert len(capture) == 0
