"""Property tests pinning the send paths that skip the generic UDP tower.

The host's socket send and the spoofed-query crafting fast path (both on
precomputed word sums and the arithmetic fold) must be byte-identical to
``encode_udp``.  The module also holds the seeded packet worlds the
fault-layer properties reuse: three hosts with an optional lossy link and
a capture, and generated packet plans with fragmented trains, corrupted
checksums, unrouted destinations and spoofed injections.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.capture import PacketCapture
from repro.netsim.network import Link, Network
from repro.netsim.packet import IPProtocol, IPv4Packet
from repro.netsim.simulator import Simulator
from repro.netsim.udp import (
    UDPDatagram,
    _UDP_HEADER,
    _address_word_sum,
    encode_udp,
    payload_word_sum,
    udp_checksum,
    udp_checksum_from_sums,
)

HOST_IPS = ("10.0.0.1", "10.0.0.2", "10.0.0.3")
UNKNOWN_IP = "172.16.0.9"


def build_world(loss: float):
    simulator = Simulator(seed=11)
    network = Network(simulator, default_latency=0.01)
    hosts = {}
    received = []
    for ip in HOST_IPS:
        host = network.add_host(f"h-{ip}", ip)
        host.bind(53, lambda payload, src, port, _ip=ip: received.append((_ip, payload, src, port)))
        hosts[ip] = host
    if loss:
        network.set_link(HOST_IPS[0], HOST_IPS[1], Link(latency=0.01, loss_probability=loss))
    capture = PacketCapture(name="prop")
    network.attach_capture(capture)
    return simulator, network, received, capture


#: One generated "send": (src index, dst index-or-unknown, payload length,
#: corrupt checksum?, fragmented?, spoofed inject?).
sends = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=120),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)


def build_packets(plan) -> list[tuple[IPv4Packet, bool]]:
    """Materialise one (packet, spoofed?) list from a generated plan.

    Fragmented sends become two-fragment trains sharing an IPID, so the
    defrag path (bucket creation, reassembly, spoofed-fragment counting)
    is exercised by both delivery shapes.
    """
    packets: list[tuple[IPv4Packet, bool]] = []
    for index, (src_i, dst_i, size, corrupt, fragment, spoof) in enumerate(plan):
        src = HOST_IPS[src_i]
        dst = UNKNOWN_IP if dst_i == 3 else HOST_IPS[dst_i]
        body = bytes((index + offset) & 0xFF for offset in range(size))
        checksum_src = "9.9.9.9" if corrupt else src
        payload = encode_udp(checksum_src, dst, UDPDatagram(4000, 53, body))
        ipid = index & 0xFFFF
        if fragment and len(payload) >= 16:
            boundary = (len(payload) // 2) & ~0x7
            if boundary >= 8:
                first = IPv4Packet(
                    src=src,
                    dst=dst,
                    protocol=IPProtocol.UDP,
                    payload=payload[:boundary],
                    ipid=ipid,
                    more_fragments=True,
                )
                second = IPv4Packet(
                    src=src,
                    dst=dst,
                    protocol=IPProtocol.UDP,
                    payload=payload[boundary:],
                    ipid=ipid,
                    fragment_offset=boundary // 8,
                )
                packets.append((first, spoof))
                packets.append((second, spoof))
                continue
        packets.append(
            (
                IPv4Packet.udp(src, dst, payload, ipid),
                spoof,
            )
        )
    return packets


def observable_state(simulator, network, received, capture, hosts_of):
    return {
        "received": list(received),
        "now": simulator.now,
        "sequence": simulator._sequence,
        "events_processed": simulator.events_processed,
        "transmitted": network.packets_transmitted,
        "dropped": network.packets_dropped,
        "captured": [
            (c.time, c.packet.src, c.packet.dst, c.packet.payload, c.packet.ipid)
            for c in capture.packets
        ],
        "host_stats": [
            (
                host.stats.udp_received,
                host.stats.udp_checksum_failures,
                host.defrag.stats.fragments_received,
                host.defrag.stats.packets_reassembled,
                host.defrag.stats.spoofed_fragments_used,
            )
            for host in hosts_of()
        ],
    }


class TestChecksumFastPathsPinned:
    addresses = st.sampled_from(
        ["10.0.0.1", "192.0.2.53", "203.0.113.17", "66.6.6.1", "255.255.255.254"]
    )
    ports = st.integers(min_value=0, max_value=0xFFFF)
    payloads = st.binary(min_size=0, max_size=256)

    @given(addresses, addresses, ports, ports, payloads)
    @settings(max_examples=200)
    def test_send_udp_matches_encode_udp(self, src, dst, sport, dport, payload):
        """A socket send packs the same UDP bytes as the datagram tower."""
        simulator = Simulator(seed=3)
        network = Network(simulator)
        sender = network.add_host("sender", src)
        if dst != src:
            network.add_host("receiver", dst)
        capture = PacketCapture(name="send")
        network.attach_capture(capture)
        network.send_udp(sender, dst, sport, dport, payload)
        (captured,) = capture.packets
        assert captured.packet.payload == encode_udp(
            src, dst, UDPDatagram(sport, dport, payload)
        )

    @given(addresses, addresses, ports, ports, payloads)
    @settings(max_examples=200)
    def test_checksum_from_sums_matches_udp_checksum(self, src, dst, sport, dport, payload):
        expected = udp_checksum(src, dst, UDPDatagram(sport, dport, payload))
        observed = udp_checksum_from_sums(
            _address_word_sum(src),
            _address_word_sum(dst),
            sport,
            dport,
            8 + len(payload),
            payload_word_sum(payload),
        )
        assert observed == expected

    @given(
        st.floats(min_value=0.0, max_value=4_000_000.0, allow_nan=False),
        st.lists(addresses, min_size=1, max_size=5, unique=True),
        st.integers(min_value=0, max_value=0x1FFFF),
    )
    @settings(max_examples=100)
    def test_spoofed_query_crafting_matches_encode_udp(self, now, servers, sent):
        """The remover's crafted spoofed queries — the reference
        ``_craft_query`` packet and the datagrams ``_send_cohort`` hands to
        ``transmit_spray`` as one payload plus per-server checksums, header
        rebuilt from those fields — are byte-identical to the generic UDP
        encode tower they replaced."""
        from types import SimpleNamespace

        from repro.core.attacker import AttackerStats
        from repro.core.rate_limit_abuse import AssociationRemover, RemovalCampaign
        from repro.ntp.packet import NTPPacket, NTP_PORT

        victim = "192.0.2.101"
        wire = NTPPacket.client_query_wire(now)
        references = [
            encode_udp(victim, server, UDPDatagram(NTP_PORT, NTP_PORT, wire))
            for server in servers
        ]

        class RecordingNetwork:
            def __init__(self):
                self.sprays = []

            def transmit_spray(self, *spray):
                self.sprays.append(spray)

        network = RecordingNetwork()
        simulator = Simulator()
        simulator.advance(now)
        attacker = SimpleNamespace(network=network, stats=AttackerStats())
        remover = AssociationRemover(attacker, simulator, victim)
        campaigns = []
        for server in servers:
            campaign = RemovalCampaign(server_ip=server, victim_ip=victim, started_at=0.0)
            campaign.queries_sent = sent
            campaigns.append(campaign)
        remover._query_payload(now)
        for campaign, reference in zip(campaigns, references):
            packet = remover._craft_query(campaign)
            assert packet.payload == reference
            assert packet.src == victim and packet.dst == campaign.server_ip

        remover._send_cohort(campaigns)
        ((src, destinations, sport, dport, payload, checksums, ipids),) = network.sprays
        assert src == victim
        assert destinations == tuple(servers)
        datagrams = [
            _UDP_HEADER.pack(sport, dport, 8 + len(payload), checksum) + payload
            for checksum in checksums
        ]
        assert datagrams == references
        assert ipids == [sent & 0xFFFF] * len(servers)
        assert [c.queries_sent for c in campaigns] == [sent + 1] * len(servers)
