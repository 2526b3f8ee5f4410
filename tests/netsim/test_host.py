"""Tests for the host network stack (UDP, PMTUD, defragmentation, profiles)."""

import pytest

from repro.netsim.errors import PacketError, PortInUseError
from repro.netsim.host import OSProfile
from repro.netsim.icmp import frag_needed
from repro.netsim.network import Network
from repro.netsim.packet import IPProtocol, IPv4Packet
from repro.netsim.simulator import Simulator
from repro.netsim.udp import UDPDatagram, encode_udp


def build_pair(profile=None):
    sim = Simulator(seed=1)
    net = Network(sim)
    sender = net.add_host("sender", "10.0.0.1")
    receiver = net.add_host("receiver", "10.0.0.2", profile=profile)
    return sim, net, sender, receiver


class TestUDPDelivery:
    def test_datagram_delivered_to_bound_port(self):
        sim, net, sender, receiver = build_pair()
        received = []
        receiver.bind(53, lambda payload, ip, port: received.append((payload, ip, port)))
        sender.bind(4000).sendto(b"hello", "10.0.0.2", 53)
        sim.run()
        assert received == [(b"hello", "10.0.0.1", 4000)]

    def test_datagram_to_unbound_port_dropped(self):
        sim, net, sender, receiver = build_pair()
        sender.bind(4000).sendto(b"hello", "10.0.0.2", 9999)
        sim.run()
        assert receiver.stats.udp_received == 1  # parsed fine, no socket

    def test_inbox_mode_without_handler(self):
        sim, net, sender, receiver = build_pair()
        socket = receiver.bind(53)
        sender.bind(4000).sendto(b"queued", "10.0.0.2", 53)
        sim.run()
        assert len(socket.inbox) == 1
        assert socket.inbox[0].payload == b"queued"

    def test_sendto_rejects_out_of_range_ports(self):
        sim, net, sender, receiver = build_pair()
        with pytest.raises(PacketError, match="70000"):
            sender.bind(4000).sendto(b"x", "10.0.0.2", 70000)
        with pytest.raises(PacketError, match="-1"):
            sender.bind(-1).sendto(b"x", "10.0.0.2", 53)
        assert sender.stats.udp_sent == 0
        assert net.packets_transmitted == 0

    def test_port_conflict_rejected(self):
        _, _, _, receiver = build_pair()
        receiver.bind(53)
        with pytest.raises(PortInUseError):
            receiver.bind(53)

    def test_ephemeral_ports_are_in_range_and_unique(self):
        _, _, sender, _ = build_pair()
        ports = {sender.bind(0).port for _ in range(50)}
        assert all(49152 <= p <= 65535 for p in ports)
        assert len(ports) == 50

    def test_closed_socket_releases_port(self):
        _, _, _, receiver = build_pair()
        socket = receiver.bind(53)
        socket.close()
        receiver.bind(53)  # no exception


class TestPMTUDAndFragmentation:
    def test_interface_mtu_above_ipv4_limit_rejected(self):
        """No IPv4 packet exceeds 65,535 bytes, so neither may an MTU: a
        datagram that fits one always fits its UDP length field."""
        net = Network(Simulator(seed=1))
        with pytest.raises(ValueError):
            net.add_host("jumbo", "10.0.0.9", interface_mtu=65536)
        assert net.add_host("max", "10.0.0.8", interface_mtu=65535).interface_mtu == 65535

    def test_icmp_frag_needed_lowers_path_mtu(self):
        sim, net, sender, receiver = build_pair()
        message = frag_needed(296)
        message.metadata["about_destination"] = "10.0.0.2"
        sender._handle_icmp(message, "10.0.0.99")
        assert sender.path_mtu("10.0.0.2") == 296
        assert sender.path_mtu("10.0.0.3") == 1500

    def test_large_datagram_fragmented_and_reassembled(self):
        sim, net, sender, receiver = build_pair()
        received = []
        receiver.bind(53, lambda payload, ip, port: received.append(payload))
        message = frag_needed(296)
        message.metadata["about_destination"] = "10.0.0.2"
        sender._handle_icmp(message, "10.0.0.99")
        payload = bytes(range(256)) * 4
        sender.bind(0).sendto(payload, "10.0.0.2", 53)
        sim.run()
        assert received == [payload]
        assert sender.stats.packets_fragmented == 1
        assert receiver.defrag.stats.packets_reassembled == 1

    def test_icmp_cannot_raise_mtu(self):
        sim, net, sender, receiver = build_pair()
        low = frag_needed(296)
        low.metadata["about_destination"] = "10.0.0.2"
        sender._handle_icmp(low, "x")
        high = frag_needed(1400)
        high.metadata["about_destination"] = "10.0.0.2"
        sender._handle_icmp(high, "x")
        assert sender.path_mtu("10.0.0.2") == 296

    def test_hardened_profile_ignores_frag_needed(self):
        sim, net, sender, receiver = build_pair()
        hardened = net.add_host("hardened", "10.0.0.3", profile=OSProfile.hardened())
        message = frag_needed(296)
        message.metadata["about_destination"] = "10.0.0.2"
        hardened._handle_icmp(message, "x")
        assert hardened.path_mtu("10.0.0.2") == 1500

    def test_mtu_clamped_to_profile_minimum(self):
        sim, net, sender, receiver = build_pair()
        message = frag_needed(40)
        message.metadata["about_destination"] = "10.0.0.2"
        sender._handle_icmp(message, "x")
        assert sender.path_mtu("10.0.0.2") == sender.profile.min_pmtu

    def test_send_icmp_over_network(self):
        sim, net, sender, receiver = build_pair()
        message = frag_needed(552)
        message.metadata["about_destination"] = "10.0.0.1"
        sender.send_icmp("10.0.0.2", message)
        sim.run()
        assert receiver.stats.icmp_received == 1
        assert receiver.path_mtu("10.0.0.1") == 552


class TestChecksumEnforcement:
    def _spoofed_packet(self, payload_src: str, claimed_src: str) -> IPv4Packet:
        datagram = UDPDatagram(src_port=53, dst_port=53, payload=b"forged response")
        payload = encode_udp(payload_src, "10.0.0.2", datagram)
        return IPv4Packet(
            src=claimed_src, dst="10.0.0.2", protocol=IPProtocol.UDP, payload=payload
        )

    def test_bad_checksum_dropped(self):
        sim, net, sender, receiver = build_pair()
        received = []
        receiver.bind(53, lambda payload, ip, port: received.append(payload))
        # Payload checksummed for a different source than the IP header claims.
        net.inject(self._spoofed_packet("9.9.9.9", "10.0.0.1"))
        sim.run()
        assert received == []
        assert receiver.stats.udp_checksum_failures == 1

    def test_correct_checksum_accepted(self):
        sim, net, sender, receiver = build_pair()
        received = []
        receiver.bind(53, lambda payload, ip, port: received.append(payload))
        net.inject(self._spoofed_packet("10.0.0.1", "10.0.0.1"))
        sim.run()
        assert received == [b"forged response"]

    def test_verification_disabled_by_profile(self):
        profile = OSProfile(name="lax", verify_udp_checksum=False)
        sim, net, sender, receiver = build_pair(profile=profile)
        received = []
        receiver.bind(53, lambda payload, ip, port: received.append(payload))
        net.inject(self._spoofed_packet("9.9.9.9", "10.0.0.1"))
        sim.run()
        assert received == [b"forged response"]


class TestProfiles:
    def test_linux_profile_defaults(self):
        profile = OSProfile.linux()
        assert profile.reassembly_timeout == 30.0
        assert profile.max_pending_fragments == 64

    def test_windows_profiles(self):
        assert OSProfile.windows().reassembly_timeout == 60.0
        assert OSProfile.windows().max_pending_fragments == 100
        assert OSProfile.windows_slow_expiry().reassembly_timeout == 120.0

    def test_fragment_filtering_profile_drops_fragments(self):
        sim, net, sender, receiver = build_pair(profile=OSProfile.fragment_filtering())
        received = []
        receiver.bind(53, lambda payload, ip, port: received.append(payload))
        message = frag_needed(296)
        message.metadata["about_destination"] = "10.0.0.2"
        sender._handle_icmp(message, "x")
        sender.bind(0).sendto(bytes(1000), "10.0.0.2", 53)
        sim.run()
        assert received == []

    def test_packet_tap_sees_incoming_packets(self):
        sim, net, sender, receiver = build_pair()
        seen = []
        receiver.packet_tap = seen.append
        receiver.bind(53)
        sender.bind(0).sendto(b"x", "10.0.0.2", 53)
        sim.run()
        assert len(seen) == 1 and seen[0].src == "10.0.0.1"
