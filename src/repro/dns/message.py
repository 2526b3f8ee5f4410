"""DNS message encoding and decoding (RFC 1035 wire format).

The poisoning attack replaces the tail of an encoded DNS response on the
wire, so the message layer must produce real bytes: a 12-byte header with the
16-bit transaction ID (TXID) and flags, the question section, and resource
records with name compression.  The TXID and the UDP source port are the two
challenge-response values that force off-path attackers to the fragmentation
technique — both live in the *first* fragment of a fragmented response.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from enum import IntEnum

from repro.dns.errors import MessageError
from repro.dns.names import decode_name, encode_name, normalize_name, skip_name
from repro.dns.records import ResourceRecord, RRClass, RRType
from repro.perf import STAGES, perf_counter

DNS_HEADER_LEN = 12

#: Precompiled codecs for the per-message hot path.
_DNS_HEADER = struct.Struct("!HHHHHH")
_QUESTION_FIXED = struct.Struct("!HH")
_RR_FIXED = struct.Struct("!HHIH")

#: Enum lookup tables: a dict hit is markedly cheaper than the Enum call in
#: the per-record decode path; misses fall back to the Enum constructor so
#: unknown values raise exactly the seed's ``ValueError``.
_RRTYPE_BY_VALUE = {int(rtype): rtype for rtype in RRType}
_RRCLASS_BY_VALUE = {int(rclass): rclass for rclass in RRClass}

#: Bound on the decoded-message cache (see :meth:`DNSMessage.decode_cached`).
DECODE_CACHE_MAX_ENTRIES = 2048

#: Decoded-message templates keyed on wire bytes *after* the 2-byte TXID:
#: replayed payloads that differ only in TXID (the poisoning flood, repeated
#: client queries) share one parse.
_DECODE_CACHE: dict[bytes, "DNSMessage"] = {}


class ResponseCode(IntEnum):
    """DNS response codes."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


@dataclass
class DNSHeaderFlags:
    """The header flag bits the reproduction uses."""

    qr: bool = False  # response flag
    aa: bool = False  # authoritative answer
    tc: bool = False  # truncated
    rd: bool = True   # recursion desired
    ra: bool = False  # recursion available
    ad: bool = False  # authenticated data (DNSSEC)
    rcode: ResponseCode = ResponseCode.NOERROR

    def encode(self) -> int:
        value = 0
        if self.qr:
            value |= 1 << 15
        if self.aa:
            value |= 1 << 10
        if self.tc:
            value |= 1 << 9
        if self.rd:
            value |= 1 << 8
        if self.ra:
            value |= 1 << 7
        if self.ad:
            value |= 1 << 5
        value |= int(self.rcode) & 0xF
        return value

    @classmethod
    def decode(cls, value: int) -> "DNSHeaderFlags":
        return cls(
            qr=bool(value & (1 << 15)),
            aa=bool(value & (1 << 10)),
            tc=bool(value & (1 << 9)),
            rd=bool(value & (1 << 8)),
            ra=bool(value & (1 << 7)),
            ad=bool(value & (1 << 5)),
            rcode=ResponseCode(value & 0xF),
        )


@dataclass
class DNSQuestion:
    """A question section entry."""

    name: str
    rtype: RRType = RRType.A
    rclass: RRClass = RRClass.IN

    def __post_init__(self) -> None:
        self.name = normalize_name(self.name)

    @property
    def key(self) -> tuple[str, RRType]:
        """Cache key for the question: (name, type)."""
        return (self.name, self.rtype)


@dataclass
class DNSMessage:
    """A complete DNS message."""

    txid: int = 0
    flags: DNSHeaderFlags = field(default_factory=DNSHeaderFlags)
    questions: list[DNSQuestion] = field(default_factory=list)
    answers: list[ResourceRecord] = field(default_factory=list)
    authority: list[ResourceRecord] = field(default_factory=list)
    additional: list[ResourceRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 <= self.txid <= 0xFFFF:
            raise MessageError(f"TXID out of range: {self.txid}")

    # ------------------------------------------------------------ factories
    @classmethod
    def query(cls, name: str, rtype: RRType = RRType.A, txid: int = 0, rd: bool = True) -> "DNSMessage":
        """Build a query message for ``name``/``rtype``."""
        return cls(
            txid=txid,
            flags=DNSHeaderFlags(qr=False, rd=rd),
            questions=[DNSQuestion(name=name, rtype=rtype)],
        )

    def make_response(
        self,
        answers: list[ResourceRecord] | None = None,
        rcode: ResponseCode = ResponseCode.NOERROR,
        authoritative: bool = True,
        recursion_available: bool = False,
        authenticated: bool = False,
    ) -> "DNSMessage":
        """Build a response to this query, echoing TXID and question."""
        return DNSMessage(
            txid=self.txid,
            flags=DNSHeaderFlags(
                qr=True,
                aa=authoritative,
                rd=self.flags.rd,
                ra=recursion_available,
                ad=authenticated,
                rcode=rcode,
            ),
            questions=list(self.questions),
            answers=list(answers or []),
        )

    # ------------------------------------------------------------ properties
    @property
    def is_response(self) -> bool:
        """True for responses (QR bit set)."""
        return self.flags.qr

    @property
    def question(self) -> DNSQuestion:
        """The first (and in practice only) question."""
        if not self.questions:
            raise MessageError("message has no question")
        return self.questions[0]

    def records(self) -> list[ResourceRecord]:
        """All records across the answer, authority and additional sections."""
        return list(self.answers) + list(self.authority) + list(self.additional)

    def wire_cache_key(self) -> tuple | None:
        """A hashable key identifying this message's wire form modulo TXID.

        Two messages with equal keys encode to identical bytes except for
        the leading 2-byte transaction ID, which lets servers cache the
        encoded body and prepend a fresh TXID per query (see
        :meth:`repro.dns.nameserver.AuthoritativeNameserver.encode_response`).
        Returns ``None`` when a record's data is not hashable, in which case
        callers must encode normally.
        """
        key = (
            self.flags.encode(),
            tuple((q.name, int(q.rtype), int(q.rclass)) for q in self.questions),
            tuple(
                (r.name, int(r.rtype), int(r.rclass), r.ttl, r.data)
                for r in self.answers
            ),
            tuple(
                (r.name, int(r.rtype), int(r.rclass), r.ttl, r.data)
                for r in self.authority
            ),
            tuple(
                (r.name, int(r.rtype), int(r.rclass), r.ttl, r.data)
                for r in self.additional
            ),
        )
        try:
            hash(key)
        except TypeError:
            return None
        return key

    # -------------------------------------------------------------- encoding
    def encode(self) -> bytes:
        """Encode to wire bytes with name compression."""
        if STAGES.enabled:
            started = perf_counter()
            wire = self._encode()
            STAGES.add("dns_encode", perf_counter() - started)
            return wire
        return self._encode()

    def _encode(self) -> bytes:
        header = _DNS_HEADER.pack(
            self.txid,
            self.flags.encode(),
            len(self.questions),
            len(self.answers),
            len(self.authority),
            len(self.additional),
        )
        body = bytearray()
        compression: dict[str, int] = {}
        for question in self.questions:
            body += encode_name(question.name, compression, DNS_HEADER_LEN + len(body))
            body += _QUESTION_FIXED.pack(int(question.rtype), int(question.rclass))
        for record in self.records():
            body += encode_name(record.name, compression, DNS_HEADER_LEN + len(body))
            rdata_offset = DNS_HEADER_LEN + len(body) + 10
            rdata = record.encode_rdata(compression, rdata_offset)
            body += _RR_FIXED.pack(
                int(record.rtype), int(record.rclass), record.ttl, len(rdata)
            )
            body += rdata
        return header + bytes(body)

    @classmethod
    def decode(cls, data: bytes) -> "DNSMessage":
        """Decode wire bytes into a message.

        Fast path: the header and question section are decoded eagerly, and
        the record sections are *structurally validated* eagerly (framing,
        name structure, known record types, A/AAAA rdata length — so
        truncated or type-corrupt wire raises here, exactly as the seed
        implementation did) but *materialised* lazily: the returned message
        parses names and rdata into :class:`ResourceRecord` objects only
        when a section is first accessed.  Rejection paths that never look
        at the records — a resolver discarding a response with the wrong
        TXID, a nameserver reading only the question — skip that work
        entirely.
        """
        if STAGES.enabled:
            started = perf_counter()
            message = cls._decode(data)
            STAGES.add("dns_decode", perf_counter() - started)
            return message
        return cls._decode(data)

    @classmethod
    def _decode(cls, data: bytes) -> "DNSMessage":
        size = len(data)
        if size < DNS_HEADER_LEN:
            raise MessageError("truncated DNS header")
        txid, flags_value, qdcount, ancount, nscount, arcount = _DNS_HEADER.unpack_from(
            data
        )
        flags = DNSHeaderFlags.decode(flags_value)
        cursor = DNS_HEADER_LEN
        questions = []
        for _ in range(qdcount):
            name, cursor = decode_name(data, cursor)
            if cursor + 4 > size:
                raise MessageError("truncated question")
            rtype, rclass = _QUESTION_FIXED.unpack_from(data, cursor)
            cursor += 4
            questions.append(
                DNSQuestion(
                    name=name,
                    rtype=_RRTYPE_BY_VALUE.get(rtype) or RRType(rtype),
                    rclass=_RRCLASS_BY_VALUE.get(rclass) or RRClass(rclass),
                )
            )
        if not (ancount or nscount or arcount):
            return cls(txid=txid, flags=flags, questions=questions)
        entries = []
        for _ in range(ancount + nscount + arcount):
            name_offset = cursor
            cursor = skip_name(data, cursor)
            if cursor + 10 > size:
                raise MessageError("truncated resource record")
            rtype, rclass, ttl, rdlength = _RR_FIXED.unpack_from(data, cursor)
            cursor += 10
            if cursor + rdlength > size:
                raise MessageError("truncated rdata")
            rtype_enum = _RRTYPE_BY_VALUE.get(rtype) or RRType(rtype)
            rclass_enum = _RRCLASS_BY_VALUE.get(rclass) or RRClass(rclass)
            if rtype_enum is RRType.A or rtype_enum is RRType.AAAA:
                if rdlength != 4:
                    raise MessageError("A record rdata must be 4 bytes")
            elif rtype_enum is RRType.NS or rtype_enum is RRType.CNAME:
                skip_name(data, cursor)
            elif rtype_enum is RRType.SOA:
                skip_name(data, skip_name(data, cursor))
            entries.append((name_offset, rtype_enum, rclass_enum, ttl, cursor, rdlength))
            cursor += rdlength
        return _LazyDNSMessage(
            txid, flags, questions, data, (ancount, nscount, arcount), entries
        )

    @classmethod
    def decode_cached(cls, data: bytes) -> "DNSMessage":
        """Decode wire bytes, reusing the parse of previously seen payloads.

        The cache key is the wire form *minus* the leading TXID, mirroring
        the nameserver's encode cache: a poisoning attacker replays the same
        response body under thousands of guessed TXIDs, and a busy resolver
        sees the same question body from many clients.  A hit clones the
        cached template — fresh message object, fresh section lists, fresh
        flags — sharing the (conventionally immutable) question and record
        objects, so parsing is skipped entirely.

        The cache is bounded: it is cleared wholesale when full, the same
        policy as the nameserver encode cache.
        """
        if STAGES.enabled:
            started = perf_counter()
            message = cls._decode_cached(data)
            STAGES.add("dns_decode", perf_counter() - started)
            return message
        return cls._decode_cached(data)

    @classmethod
    def _decode_cached(cls, data: bytes) -> "DNSMessage":
        body = data[2:]
        template = _DECODE_CACHE.get(body)
        if template is None:
            template = cls._decode(data)
            # A compression pointer can target offsets 0/1 — the TXID
            # itself — making the parse depend on bytes the cache key
            # strips.  Such a pointer necessarily contains the byte pair
            # C0 00 or C0 01 *within the body* (names only ever live past
            # the header), so bodies containing either pair are never
            # cached; false positives in rdata merely skip the cache.
            # Cacheability is a property of the body alone, so cache hits
            # need no scan.
            if b"\xc0\x00" in body or b"\xc0\x01" in body:
                return template
            if len(_DECODE_CACHE) >= DECODE_CACHE_MAX_ENTRIES:
                _DECODE_CACHE.clear()
            _DECODE_CACHE[body] = template
        return template._clone_with_txid((data[0] << 8) | data[1])

    def _clone_with_txid(self, txid: int) -> "DNSMessage":
        """A shallow copy with ``txid``: fresh lists, shared question/record objects."""
        clone = DNSMessage.__new__(DNSMessage)
        clone.txid = txid
        clone.flags = replace(self.flags)
        clone.questions = list(self.questions)
        clone.answers = list(self.answers)
        clone.authority = list(self.authority)
        clone.additional = list(self.additional)
        return clone


class _LazyDNSMessage(DNSMessage):
    """A decoded message whose record sections materialise on first access.

    Header and questions are plain attributes (decoded eagerly); the three
    record sections are properties backed by a parse of the retained wire
    bytes that runs at most once per decode *template* — clones made by the
    decode cache share their template's parse and only copy the lists.
    ``DNSMessage.decode`` pre-validates record framing, so materialisation
    cannot raise for truncation; only exotic rdata-content errors (which the
    seed implementation also surfaced as non-``MessageError`` exceptions)
    remain deferred.
    """

    def __init__(
        self,
        txid: int,
        flags: DNSHeaderFlags,
        questions: list[DNSQuestion],
        wire: bytes,
        counts: tuple[int, int, int],
        entries: list[tuple],
    ) -> None:
        self.txid = txid
        self.flags = flags
        self.questions = questions
        self._wire = wire
        self._counts = counts
        self._entries = entries
        self._template: "_LazyDNSMessage" = self
        self._sections: list[list[ResourceRecord]] | None = None

    # ------------------------------------------------------- materialisation
    def _materialize(self) -> list[list[ResourceRecord]]:
        sections = self._sections
        if sections is not None:
            return sections
        template = self._template
        if template is not self:
            self._sections = sections = [list(s) for s in template._materialize()]
            return sections
        wire = self._wire
        records = []
        for name_offset, rtype, rclass, ttl, rdata_offset, rdlength in self._entries:
            name, _ = decode_name(wire, name_offset)
            data = ResourceRecord.decode_rdata(
                rtype, wire[rdata_offset : rdata_offset + rdlength], wire, rdata_offset
            )
            records.append(
                ResourceRecord(name=name, rtype=rtype, ttl=ttl, data=data, rclass=rclass)
            )
        ancount, nscount, _arcount = self._counts
        self._sections = sections = [
            records[:ancount],
            records[ancount : ancount + nscount],
            records[ancount + nscount :],
        ]
        return sections

    def _clone_with_txid(self, txid: int) -> "DNSMessage":
        clone = _LazyDNSMessage.__new__(_LazyDNSMessage)
        clone.txid = txid
        clone.flags = replace(self.flags)
        clone.questions = list(self.questions)
        clone._wire = self._wire
        clone._counts = self._counts
        clone._entries = self._entries
        clone._template = self._template
        clone._sections = None
        return clone

    # ------------------------------------------------------------- sections
    @property
    def answers(self) -> list[ResourceRecord]:
        return self._materialize()[0]

    @property
    def authority(self) -> list[ResourceRecord]:
        return self._materialize()[1]

    @property
    def additional(self) -> list[ResourceRecord]:
        return self._materialize()[2]

    # ----------------------------------------------------------- comparisons
    def __eq__(self, other: object) -> bool:
        # The dataclass-generated __eq__ requires identical classes; a lazy
        # decode result must still compare equal to an equivalent eagerly
        # built message.
        if isinstance(other, DNSMessage):
            return (
                self.txid,
                self.flags,
                self.questions,
                self.answers,
                self.authority,
                self.additional,
            ) == (
                other.txid,
                other.flags,
                other.questions,
                other.answers,
                other.authority,
                other.additional,
            )
        return NotImplemented

    __hash__ = None


@dataclass
class RecordOffsets:
    """Byte offsets of one resource record inside an encoded message.

    Used by the fragment-replacement attack to locate, within the raw wire
    bytes, the fields it may rewrite (the rdata of A records) and the fields
    it may sacrifice to fix the UDP checksum (the low half of a TTL).
    """

    section: str
    index: int
    name_offset: int
    type_offset: int
    ttl_offset: int
    rdlength_offset: int
    rdata_offset: int
    rdlength: int
    rtype: RRType

    @property
    def ttl_low_offset(self) -> int:
        """Offset of the low 16 bits of the TTL field."""
        return self.ttl_offset + 2

    @property
    def end_offset(self) -> int:
        """Offset just past this record."""
        return self.rdata_offset + self.rdlength


def record_offsets(data: bytes) -> list[RecordOffsets]:
    """Walk an encoded DNS message and report each record's field offsets."""
    if len(data) < DNS_HEADER_LEN:
        raise MessageError("truncated DNS header")
    _txid, _flags, qdcount, ancount, nscount, arcount = _DNS_HEADER.unpack(
        data[:DNS_HEADER_LEN]
    )
    cursor = DNS_HEADER_LEN
    for _ in range(qdcount):
        _name, cursor = decode_name(data, cursor)
        if cursor + 4 > len(data):
            raise MessageError("truncated question")
        cursor += 4
    offsets: list[RecordOffsets] = []
    for section, count in (("answer", ancount), ("authority", nscount), ("additional", arcount)):
        for index in range(count):
            name_offset = cursor
            _name, cursor = decode_name(data, cursor)
            if cursor + 10 > len(data):
                raise MessageError("truncated resource record")
            rtype, _rclass, _ttl, rdlength = _RR_FIXED.unpack(
                data[cursor : cursor + 10]
            )
            if cursor + 10 + rdlength > len(data):
                raise MessageError("truncated rdata")
            offsets.append(
                RecordOffsets(
                    section=section,
                    index=index,
                    name_offset=name_offset,
                    type_offset=cursor,
                    ttl_offset=cursor + 4,
                    rdlength_offset=cursor + 8,
                    rdata_offset=cursor + 10,
                    rdlength=rdlength,
                    rtype=RRType(rtype),
                )
            )
            cursor += 10 + rdlength
    return offsets
