"""Property-based tests for checksum arithmetic and checksum fixing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checksum_fix import craft_matching_fragment, sums_match
from repro.netsim.checksum import (
    add_ones_complement,
    internet_checksum,
    ones_complement_sum,
    verify_checksum,
)
from repro.netsim.network import Network
from repro.netsim.packet import IPv4Packet
from repro.netsim.simulator import Simulator
from repro.netsim.udp import UDPDatagram, encode_udp, udp_checksum_arith
from repro.perf import STAGES

payloads = st.binary(min_size=0, max_size=512)
words = st.integers(min_value=0, max_value=0xFFFF)


class TestChecksumProperties:
    @given(payloads)
    def test_sum_fits_in_16_bits(self, data):
        assert 0 <= ones_complement_sum(data) <= 0xFFFF

    @given(payloads)
    def test_checksum_verifies_when_appended(self, data):
        # Checksums live at even offsets in real headers, so pad odd data.
        if len(data) % 2 == 1:
            data = data + b"\x00"
        checksum = internet_checksum(data)
        assert verify_checksum(data + checksum.to_bytes(2, "big"))

    @given(payloads)
    def test_padding_with_zero_byte_preserves_sum(self, data):
        assert ones_complement_sum(data) == ones_complement_sum(data + b"\x00")

    @given(st.lists(payloads, min_size=2, max_size=4))
    def test_sum_is_associative_over_concatenation(self, chunks):
        # Only holds when every chunk except the last has even length.
        chunks = [c if len(c) % 2 == 0 else c + b"\x00" for c in chunks]
        total = ones_complement_sum(b"".join(chunks))
        folded = 0
        for chunk in chunks:
            folded = add_ones_complement(folded, ones_complement_sum(chunk))
        # Both represent the same value modulo the two encodings of zero.
        assert folded == total or {folded, total} == {0x0000, 0xFFFF}

    @given(words, words)
    def test_add_commutative(self, a, b):
        assert add_ones_complement(a, b) == add_ones_complement(b, a)


class TestChecksumFixProperties:
    @given(
        st.binary(min_size=40, max_size=200),
        st.binary(min_size=1, max_size=16),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=200)
    def test_crafted_fragment_always_matches_original_sum(self, original, patch, where):
        original = original if len(original) % 2 == 0 else original + b"\x00"
        desired = bytearray(original)
        start = min(where, len(original) - len(patch))
        desired[start : start + len(patch)] = patch
        adjustable = [len(original) - 4]  # sacrifice the penultimate word
        crafted = craft_matching_fragment(original, bytes(desired), adjustable)
        assert sums_match(original, crafted)
        assert len(crafted) == len(original)

    @given(st.binary(min_size=20, max_size=100))
    def test_identical_fragments_unchanged(self, original):
        crafted = craft_matching_fragment(original, original, adjustable_offsets=[0])
        assert crafted == original


class TestDeliverVerifyPinnedToArith:
    """``HostDatapath.deliver`` verifies through ``udp_checksum_arith``,
    with stage timing on ("timed") or off; both must give one verdict:
    accept exactly when the length field matches and the checksum field is
    0 ("not computed") or equals ``udp_checksum_arith``.  Odd lengths,
    single-bit flips and checksum fields 0 and 0xFFFF included."""

    @given(
        st.sampled_from(["10.0.0.1", "192.0.2.150", "255.255.255.254"]),
        st.integers(min_value=0, max_value=0xFFFF),
        st.binary(max_size=65),
        st.one_of(
            st.none(),
            st.sampled_from([0, 0xFFFF]),
            st.integers(min_value=0, max_value=0xFFFF),
        ),
        st.one_of(st.none(), st.integers(min_value=0, max_value=8 * 75 - 1)),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_deliver_and_timed_twin_accept_exactly_the_arith_matches(
        self, src, sport, body, checksum, flip, sums_to_zero
    ):
        dst = "203.0.113.7"
        if sums_to_zero:
            # Append the checksum of (body + a zero word) as that word: the
            # word sum then folds to zero, whose checksum RFC 768 sends as
            # 0xFFFF — the edge a 1-in-65535 random payload never hits.
            body += b"\x00" * (len(body) & 1)
            word = udp_checksum_arith(src, dst, sport, 123, body + b"\x00\x00")
            body += word.to_bytes(2, "big")
            assert udp_checksum_arith(src, dst, sport, 123, body) == 0xFFFF
        datagram = bytearray(encode_udp(src, dst, UDPDatagram(sport, 123, body)))
        if checksum is not None:
            datagram[6:8] = checksum.to_bytes(2, "big")
        if flip is not None:
            datagram[(flip // 8) % len(datagram)] ^= 1 << (flip % 8)
        datagram = bytes(datagram)
        src_port = int.from_bytes(datagram[0:2], "big")
        dst_port = int.from_bytes(datagram[2:4], "big")
        length = int.from_bytes(datagram[4:6], "big")
        field = int.from_bytes(datagram[6:8], "big")
        expected = length == len(datagram) and (
            field == 0
            or field == udp_checksum_arith(src, dst, src_port, dst_port, datagram[8:])
        )

        def accepted(timed: bool) -> bool:
            simulator = Simulator(seed=1)
            network = Network(simulator)
            host = network.add_host("receiver", dst)
            STAGES.reset()
            if timed:
                STAGES.enable()
            try:
                network.inject(IPv4Packet.udp(src, dst, datagram, 7))
                simulator.run()
            finally:
                STAGES.disable()
                STAGES.reset()
            stats = host.stats
            assert stats.udp_received + stats.udp_checksum_failures == 1
            return stats.udp_received == 1

        assert accepted(False) == expected
        assert accepted(True) == expected
