"""Tests for IPv4 packet encoding and fragment semantics."""

import pytest

from repro.netsim.errors import PacketError
from repro.netsim.packet import IPProtocol, IPv4Packet, IPV4_HEADER_LEN


def make_packet(**overrides) -> IPv4Packet:
    defaults = dict(
        src="10.0.0.1",
        dst="10.0.0.2",
        protocol=IPProtocol.UDP,
        payload=b"payload-bytes",
        ipid=0x1234,
    )
    defaults.update(overrides)
    return IPv4Packet(**defaults)


class TestConstruction:
    def test_total_length_includes_header(self):
        packet = make_packet(payload=b"x" * 100)
        assert packet.total_length == 100 + IPV4_HEADER_LEN

    def test_rejects_bad_ipid(self):
        with pytest.raises(PacketError):
            make_packet(ipid=0x10000)

    def test_rejects_bad_fragment_offset(self):
        with pytest.raises(PacketError):
            make_packet(fragment_offset=0x2000)

    def test_rejects_oversized_payload(self):
        with pytest.raises(PacketError):
            make_packet(payload=b"x" * 65536)


class TestFragmentProperties:
    def test_plain_packet_is_not_a_fragment(self):
        assert not make_packet().is_fragment

    def test_first_fragment(self):
        packet = make_packet(more_fragments=True, fragment_offset=0)
        assert packet.is_fragment and packet.is_first_fragment
        assert packet.more_fragments

    def test_last_fragment(self):
        packet = make_packet(more_fragments=False, fragment_offset=6)
        assert packet.is_fragment and not packet.more_fragments
        assert not packet.is_first_fragment

    def test_fragment_key_groups_by_src_dst_proto_ipid(self):
        a = make_packet(fragment_offset=0, more_fragments=True)
        b = make_packet(fragment_offset=6)
        assert a.fragment_key == b.fragment_key
        assert a.fragment_key != make_packet(ipid=0x9999).fragment_key

    def test_copy_preserves_but_does_not_share_metadata(self):
        packet = make_packet()
        packet.metadata["spoofed"] = True
        copy = packet.copy(payload=b"different")
        assert copy.metadata["spoofed"]
        copy.metadata["other"] = 1
        assert "other" not in packet.metadata


class TestWireFormat:
    def test_encode_decode_round_trip(self):
        packet = make_packet(
            payload=b"\x01\x02\x03\x04 some payload",
            ttl=17,
            more_fragments=True,
            fragment_offset=42,
            dont_fragment=False,
        )
        decoded = IPv4Packet.decode(packet.encode())
        assert decoded.src == packet.src
        assert decoded.dst == packet.dst
        assert decoded.protocol is packet.protocol
        assert decoded.payload == packet.payload
        assert decoded.ipid == packet.ipid
        assert decoded.ttl == packet.ttl
        assert decoded.more_fragments == packet.more_fragments
        assert decoded.fragment_offset == packet.fragment_offset

    def test_encode_produces_20_byte_header(self):
        packet = make_packet(payload=b"abc")
        assert len(packet.encode()) == IPV4_HEADER_LEN + 3

    def test_df_flag_round_trip(self):
        packet = make_packet(dont_fragment=True)
        assert IPv4Packet.decode(packet.encode()).dont_fragment

    def test_decode_rejects_truncated_header(self):
        with pytest.raises(PacketError):
            IPv4Packet.decode(b"\x45\x00\x00")

    def test_decode_rejects_length_mismatch(self):
        data = make_packet(payload=b"abcdef").encode()
        with pytest.raises(PacketError):
            IPv4Packet.decode(data[:-2])

    def test_decode_rejects_wrong_version(self):
        data = bytearray(make_packet().encode())
        data[0] = (6 << 4) | 5
        with pytest.raises(PacketError):
            IPv4Packet.decode(bytes(data))
