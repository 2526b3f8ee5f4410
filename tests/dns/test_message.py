"""Tests for DNS message wire encoding and decoding."""

import pytest

from repro.dns.errors import MessageError
from repro.dns.message import (
    DNSHeaderFlags,
    DNSMessage,
    ResponseCode,
    record_offsets,
)
from repro.core.chronos_attack import max_addresses_in_response
from repro.dns.records import RRType, a_record, ns_record, txt_record


class TestHeaderFlags:
    def test_round_trip(self):
        flags = DNSHeaderFlags(qr=True, aa=True, rd=True, ra=True, ad=True, rcode=ResponseCode.NXDOMAIN)
        assert DNSHeaderFlags.decode(flags.encode()) == flags

    def test_defaults(self):
        flags = DNSHeaderFlags()
        assert not flags.qr and flags.rd and flags.rcode is ResponseCode.NOERROR


class TestQueriesAndResponses:
    def test_query_factory(self):
        query = DNSMessage.query("pool.ntp.org", RRType.A, txid=0x1234)
        assert query.txid == 0x1234
        assert not query.is_response
        assert query.question.key == ("pool.ntp.org", RRType.A)

    def test_rd_zero_query(self):
        query = DNSMessage.query("pool.ntp.org", rd=False)
        assert not query.flags.rd

    def test_response_echoes_txid_and_question(self):
        query = DNSMessage.query("pool.ntp.org", txid=77)
        response = query.make_response(answers=[a_record("pool.ntp.org", "1.2.3.4")])
        assert response.txid == 77
        assert response.is_response
        assert response.question.name == "pool.ntp.org"
        assert len(response.answers) == 1

    def test_question_required(self):
        with pytest.raises(MessageError):
            DNSMessage().question

    def test_invalid_txid_rejected(self):
        with pytest.raises(MessageError):
            DNSMessage(txid=1 << 16)


class TestWireFormat:
    def build_response(self):
        query = DNSMessage.query("pool.ntp.org", txid=0xBEEF)
        response = query.make_response(
            answers=[a_record("pool.ntp.org", f"203.0.113.{i}", ttl=150) for i in range(1, 5)]
        )
        response.authority.append(ns_record("pool.ntp.org", "ns1.pool.ntp.org"))
        response.additional.append(a_record("ns1.pool.ntp.org", "198.51.100.1"))
        return response

    def test_round_trip(self):
        response = self.build_response()
        decoded = DNSMessage.decode(response.encode())
        assert decoded.txid == 0xBEEF
        assert [str(r.data) for r in decoded.answers] == [f"203.0.113.{i}" for i in range(1, 5)]
        assert decoded.authority[0].rtype is RRType.NS
        assert decoded.additional[0].name == "ns1.pool.ntp.org"

    def test_compression_reduces_size(self):
        response = self.build_response()
        encoded = response.encode()
        # Rough upper bound: an uncompressed encoding would repeat the
        # 14-byte owner name for each of the 6 records.
        assert len(encoded) < 12 + 18 + 6 * (16 + 14) + 40

    def test_truncated_header_rejected(self):
        with pytest.raises(MessageError):
            DNSMessage.decode(b"\x00\x01\x02")

    def test_truncated_record_rejected(self):
        encoded = self.build_response().encode()
        with pytest.raises(MessageError):
            DNSMessage.decode(encoded[:-3])

    def test_query_encoding_size(self):
        # header (12) + qname pool.ntp.org (14) + qtype/qclass (4)
        assert len(DNSMessage.query("pool.ntp.org").encode()) == 30

    def test_records_listing(self):
        response = self.build_response()
        assert len(response.records()) == 6


class TestRecordOffsets:
    def test_offsets_locate_a_record_addresses(self):
        response = TestWireFormat().build_response()
        encoded = response.encode()
        offsets = record_offsets(encoded)
        a_offsets = [o for o in offsets if o.rtype is RRType.A and o.section == "answer"]
        assert len(a_offsets) == 4
        first = a_offsets[0]
        assert encoded[first.rdata_offset : first.rdata_offset + 4] == bytes([203, 0, 113, 1])
        assert first.rdlength == 4
        assert first.ttl_low_offset == first.ttl_offset + 2

    def test_sections_labelled(self):
        encoded = TestWireFormat().build_response().encode()
        sections = [o.section for o in record_offsets(encoded)]
        assert sections == ["answer"] * 4 + ["authority", "additional"]

    def test_end_offsets_are_monotonic(self):
        encoded = TestWireFormat().build_response().encode()
        offsets = record_offsets(encoded)
        ends = [o.end_offset for o in offsets]
        assert ends == sorted(ends)
        assert ends[-1] == len(encoded)


class TestResponseCapacity:
    def test_paper_bound_of_89_addresses(self):
        # With a 1500-byte MTU and an EDNS0 OPT record, 89 A records fit.
        assert max_addresses_in_response() == 89

    def test_classic_512_byte_limit(self):
        # A 512-byte payload without EDNS0: the IPv4 and UDP headers make
        # the MTU 540.
        assert max_addresses_in_response(mtu=540, edns_opt_size=0) == 30

    def test_capacity_monotone_in_payload_limit(self):
        small = max_addresses_in_response(mtu=540, edns_opt_size=0)
        large = max_addresses_in_response(mtu=1500, edns_opt_size=0)
        assert large > small

    def test_large_response_round_trips(self):
        query = DNSMessage.query("pool.ntp.org", txid=1)
        answers = [a_record("pool.ntp.org", f"66.6.{i // 250}.{i % 250}", ttl=90000) for i in range(89)]
        response = query.make_response(answers=answers)
        encoded = response.encode()
        assert len(encoded) <= 1472
        assert len(DNSMessage.decode(encoded).answers) == 89

    def test_padding_txt_increases_size(self):
        query = DNSMessage.query("pool.ntp.org", txid=1)
        small = query.make_response(answers=[a_record("pool.ntp.org", "1.1.1.1")])
        padded = query.make_response(answers=[a_record("pool.ntp.org", "1.1.1.1")])
        padded.additional.append(txt_record("info.pool.ntp.org", "x" * 200))
        assert len(padded.encode()) > len(small.encode()) + 200


class TestRecordOffsetsTruncation:
    """record_offsets must reject truncated input with MessageError.

    The seed implementation read ``data[cursor:cursor+10]`` without a bounds
    check, so truncated messages escaped as ``struct.error`` instead of the
    documented :class:`MessageError`.
    """

    def _wire(self):
        query = DNSMessage.query("pool.ntp.org", txid=7)
        response = query.make_response(
            answers=[a_record("pool.ntp.org", "203.0.113.1", ttl=150)]
        )
        response.authority.append(ns_record("pool.ntp.org", "ns1.pool.ntp.org"))
        return response.encode()

    def test_full_message_is_accepted(self):
        assert len(record_offsets(self._wire())) == 2

    def test_every_truncation_raises_dns_error(self):
        # Any cut point must surface as the documented DNSError hierarchy
        # (MessageError for structure, NameError_ inside a name) — never as
        # a bare struct.error.
        from repro.dns.errors import DNSError

        wire = self._wire()
        for cut in range(len(wire)):
            with pytest.raises(DNSError):
                record_offsets(wire[:cut])

    def test_truncated_fixed_fields_raise_message_error(self):
        wire = self._wire()
        offsets = record_offsets(wire)
        # Cut inside the 10-byte (type, class, ttl, rdlength) block of the
        # first record: exactly the read the seed performed unguarded.
        cut = offsets[0].type_offset + 5
        with pytest.raises(MessageError):
            record_offsets(wire[:cut])

    def test_truncated_rdata_raises_message_error(self):
        wire = self._wire()
        offsets = record_offsets(wire)
        cut = offsets[0].rdata_offset + offsets[0].rdlength - 1
        with pytest.raises(MessageError):
            record_offsets(wire[:cut])
