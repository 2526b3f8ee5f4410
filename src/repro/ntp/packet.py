"""NTP packet format (RFC 5905), including Kiss-o'-Death responses.

The reproduction uses client (mode 3) and server (mode 4) packets plus the
``RATE`` Kiss-o'-Death code that rate-limiting servers send just before they
stop answering a client.  The ``reference_id`` of a mode 4 packet from a
stratum-2+ server carries the IPv4 address of its current upstream server,
which is the information leak the run-time attack's scenario P2 uses to
discover a victim's associations one at a time (paper section IV-B2b).

Hot-path note: the two packets an attack produces by the hundred thousand
never become packet objects.  Spoofed mode 3 queries are built by
:meth:`NTPPacket.client_query_wire`, and servers answer them with the
one-pack splice behind :meth:`NTPPacket.server_response_wire` (a cached
header, the server timestamp and the query's transmit bytes packed into
the 48 response bytes by one precompiled ``struct``); ``NTPServer``'s
compiled handler calls it directly.
Clients discard replies that do not echo a pending poll before decoding
them.  What is still decoded and encoded (client polls, accepted responses,
Kiss-o'-Death packets) goes through :meth:`NTPPacket.encode`/
:meth:`NTPPacket.decode`, which use one precompiled :class:`struct.Struct`
for the whole 48-byte packet; the packet itself is a slotted dataclass.
Decoding truncated or malformed bytes raises the typed
:class:`~repro.ntp.errors.NTPPacketError` (a ``ValueError`` subclass), never
a raw ``struct.error``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache

from repro.netsim.addresses import int_to_ip, ip_to_int
from repro.ntp.errors import NTPPacketError
from repro.ntp.timestamps import (
    NTP_UNIX_EPOCH_DELTA,
    NTPTimestamp,
    timestamp_from_wire,
)
from repro.perf import STAGES, perf_counter

#: Well-known NTP UDP port.
NTP_PORT = 123
#: Size of a plain (unauthenticated) NTP packet.
NTP_PACKET_LEN = 48

#: The whole 48-byte packet as one precompiled codec: header fields, the
#: 4-byte reference id, then the four timestamps as eight 32-bit words.
_NTP_WIRE = struct.Struct("!BBbbII4s8I")
#: Packs the two 32-bit words of one timestamp (see the ``*_wire`` methods).
_PACK_TIMESTAMP = struct.Struct("!II").pack
#: Packs a whole mode 4 response in one call: the cached 16-byte prefix,
#: the reference timestamp, the origin bytes copied from the query, then
#: the receive and transmit timestamps.
_PACK_RESPONSE = struct.Struct("!16sII8sIIII").pack
#: First 40 bytes of every default mode 3 query: leap 0 / version 4 / mode 3,
#: stratum 0, poll 6, precision -20, zero root delay/dispersion/refid and
#: zero reference, origin and receive timestamps.
_CLIENT_QUERY_PREFIX = struct.pack("!BBbbII4s6I", 0x23, 0, 6, -20, 0, 0, b"\x00" * 4, 0, 0, 0, 0, 0, 0)


class NTPMode(IntEnum):
    """NTP association modes used here."""

    SYMMETRIC_ACTIVE = 1
    SYMMETRIC_PASSIVE = 2
    CLIENT = 3
    SERVER = 4
    BROADCAST = 5
    CONTROL = 6
    PRIVATE = 7


#: Mode lookup table: a dict hit is markedly cheaper than the Enum call in
#: the per-packet decode path (misses fall back to the typed error below).
_MODE_BY_VALUE = {int(mode): mode for mode in NTPMode}


class KissCode:
    """Kiss-o'-Death reference identifiers (RFC 5905 section 7.4)."""

    RATE = "RATE"
    DENY = "DENY"
    RSTR = "RSTR"


@lru_cache(maxsize=4096)
def _decode_refid(stratum: int, refid_bytes: bytes) -> str:
    """Decode the 4-byte reference id (cached; the value space is tiny).

    Stratum 0/1 carry ASCII identifiers (kiss codes, reference clock names);
    higher strata carry the IPv4 address of the synchronisation source.
    """
    if stratum <= 1:
        return refid_bytes.rstrip(b"\x00").decode("ascii", errors="replace")
    if refid_bytes == b"\x00\x00\x00\x00":
        return ""
    return int_to_ip(int.from_bytes(refid_bytes, "big"))


@lru_cache(maxsize=4096)
def _encode_refid(stratum: int, reference_id: str) -> bytes:
    """Encode a reference id to its 4 wire bytes (cached, bounded)."""
    if not reference_id:
        return b"\x00" * 4
    if stratum <= 1:
        return reference_id.encode("ascii")[:4].ljust(4, b"\x00")
    return ip_to_int(reference_id).to_bytes(4, "big")


#: Bound on the mode 4 response-prefix cache (clear-on-full, like the
#: intern tables): the poll byte is copied from whatever a query carries.
RESPONSE_PREFIX_CACHE_MAX_ENTRIES = 4096

#: First 16 bytes of a mode 4 response per (stratum, reference id, poll
#: byte).  A plain dict: one ``get`` per answer costs less than an
#: ``lru_cache`` call with three arguments.
_RESPONSE_PREFIXES: dict[tuple[int, str, int], bytes] = {}


def _server_response_prefix(stratum: int, reference_id: str, poll_byte: int) -> bytes:
    """Build and cache the first 16 bytes of a mode 4 response.

    Leap 0 / version 4 / mode 4, the stratum, the query's raw poll byte,
    precision -20, zero root delay and dispersion, and the reference id.
    """
    prefix = struct.pack(
        "!BBBbII4s", 0x24, stratum, poll_byte, -20, 0, 0, _encode_refid(stratum, reference_id)
    )
    if len(_RESPONSE_PREFIXES) >= RESPONSE_PREFIX_CACHE_MAX_ENTRIES:
        _RESPONSE_PREFIXES.clear()
    _RESPONSE_PREFIXES[(stratum, reference_id, poll_byte)] = prefix
    return prefix


def _server_response_wire(
    query_wire: bytes, server_time: float, stratum: int, reference_id: str
) -> bytes:
    """The 48 bytes of the mode 4 response to ``query_wire`` (see
    :meth:`NTPPacket.server_response_wire`)."""
    ntp_time = server_time + NTP_UNIX_EPOCH_DELTA
    seconds = int(ntp_time)
    # ``round`` of a float already returns an int.
    fraction = round((ntp_time - seconds) * 4294967296.0) % 4294967296
    seconds &= 0xFFFFFFFF
    poll_byte = query_wire[2]
    prefix = _RESPONSE_PREFIXES.get((stratum, reference_id, poll_byte))
    if prefix is None:
        prefix = _server_response_prefix(stratum, reference_id, poll_byte)
    return _PACK_RESPONSE(
        prefix, seconds, fraction, query_wire[40:48], seconds, fraction, seconds, fraction
    )


@dataclass(slots=True)
class NTPPacket:
    """A 48-byte NTP packet."""

    mode: NTPMode
    leap: int = 0
    version: int = 4
    stratum: int = 2
    poll: int = 6
    precision: int = -20
    root_delay: float = 0.0
    root_dispersion: float = 0.0
    reference_id: str = ""
    reference_timestamp: NTPTimestamp = field(default_factory=NTPTimestamp.zero)
    origin_timestamp: NTPTimestamp = field(default_factory=NTPTimestamp.zero)
    receive_timestamp: NTPTimestamp = field(default_factory=NTPTimestamp.zero)
    transmit_timestamp: NTPTimestamp = field(default_factory=NTPTimestamp.zero)

    # ------------------------------------------------------------ properties
    @property
    def is_kiss_of_death(self) -> bool:
        """True for stratum-0 server packets carrying a kiss code."""
        return self.mode is NTPMode.SERVER and self.stratum == 0

    @property
    def kiss_code(self) -> str:
        """The kiss code, for Kiss-o'-Death packets."""
        return self.reference_id if self.is_kiss_of_death else ""

    # -------------------------------------------------------------- encoding
    def encode(self) -> bytes:
        """Encode the packet to its 48 wire bytes."""
        if STAGES.enabled:
            started = perf_counter()
            wire = self._encode()
            STAGES.add("ntp_encode", perf_counter() - started)
            return wire
        return self._encode()

    def _encode(self) -> bytes:
        reference = self.reference_timestamp
        origin = self.origin_timestamp
        receive = self.receive_timestamp
        transmit = self.transmit_timestamp
        return _NTP_WIRE.pack(
            ((self.leap & 0x3) << 6) | ((self.version & 0x7) << 3) | int(self.mode),
            self.stratum,
            self.poll,
            self.precision,
            int(self.root_delay * (1 << 16)) & 0xFFFFFFFF,
            int(self.root_dispersion * (1 << 16)) & 0xFFFFFFFF,
            _encode_refid(self.stratum, self.reference_id),
            reference.seconds,
            reference.fraction,
            origin.seconds,
            origin.fraction,
            receive.seconds,
            receive.fraction,
            transmit.seconds,
            transmit.fraction,
        )

    @classmethod
    def decode(cls, data: bytes) -> "NTPPacket":
        """Decode 48 wire bytes into a packet.

        Raises :class:`NTPPacketError` on truncated input or an invalid mode
        (never ``struct.error``).
        """
        if STAGES.enabled:
            started = perf_counter()
            packet = cls._decode(data)
            STAGES.add("ntp_decode", perf_counter() - started)
            return packet
        return cls._decode(data)

    @classmethod
    def _decode(cls, data: bytes) -> "NTPPacket":
        if len(data) < NTP_PACKET_LEN:
            raise NTPPacketError(f"NTP packet too short: {len(data)} bytes")
        (
            li_vn_mode,
            stratum,
            poll,
            precision,
            root_delay_raw,
            root_dispersion_raw,
            refid_bytes,
            ref_seconds,
            ref_fraction,
            orig_seconds,
            orig_fraction,
            recv_seconds,
            recv_fraction,
            xmit_seconds,
            xmit_fraction,
        ) = _NTP_WIRE.unpack_from(data)
        mode = _MODE_BY_VALUE.get(li_vn_mode & 0x7)
        if mode is None:
            raise NTPPacketError(f"{li_vn_mode & 0x7} is not a valid NTPMode")
        # Direct slot assignment: this constructor runs once per received
        # packet, and skipping the 13-keyword __init__ call is a measurable
        # share of decode cost.
        packet = cls.__new__(cls)
        packet.mode = mode
        packet.leap = (li_vn_mode >> 6) & 0x3
        packet.version = (li_vn_mode >> 3) & 0x7
        packet.stratum = stratum
        packet.poll = poll
        packet.precision = precision
        packet.root_delay = root_delay_raw / (1 << 16)
        packet.root_dispersion = root_dispersion_raw / (1 << 16)
        packet.reference_id = _decode_refid(stratum, refid_bytes)
        packet.reference_timestamp = timestamp_from_wire(ref_seconds, ref_fraction)
        packet.origin_timestamp = timestamp_from_wire(orig_seconds, orig_fraction)
        packet.receive_timestamp = timestamp_from_wire(recv_seconds, recv_fraction)
        packet.transmit_timestamp = timestamp_from_wire(xmit_seconds, xmit_fraction)
        return packet

    # ------------------------------------------------------------ factories
    @classmethod
    def client_query(cls, transmit_time: float) -> "NTPPacket":
        """Build a mode 3 query with the client's transmit timestamp."""
        return cls(
            mode=NTPMode.CLIENT,
            stratum=0,
            transmit_timestamp=NTPTimestamp.from_unix(transmit_time),
        )

    @classmethod
    def client_query_wire(cls, transmit_time: float) -> bytes:
        """The wire bytes of :meth:`client_query` without building the packet.

        Spoofing loops encode tens of thousands of mode 3 queries that are
        identical except for the transmit timestamp, so the first 40 bytes
        are a precomputed constant (pinned against ``client_query().encode()``
        by the fast-path property tests).
        """
        ntp_time = transmit_time + NTP_UNIX_EPOCH_DELTA
        seconds = int(ntp_time)
        return _CLIENT_QUERY_PREFIX + _PACK_TIMESTAMP(
            seconds & 0xFFFFFFFF,
            round((ntp_time - seconds) * 4294967296.0) % 4294967296,
        )

    @classmethod
    def server_response(
        cls,
        query: "NTPPacket",
        server_time: float,
        stratum: int = 2,
        reference_id: str = "",
    ) -> "NTPPacket":
        """Build the mode 4 response to ``query`` at the server's clock time.

        Servers send :meth:`server_response_wire` instead; this object form
        is the reference that method is tested against.
        """
        now = NTPTimestamp.from_unix(server_time)
        return cls(
            mode=NTPMode.SERVER,
            stratum=stratum,
            poll=query.poll,
            reference_id=reference_id,
            reference_timestamp=now,
            origin_timestamp=query.transmit_timestamp,
            receive_timestamp=now,
            transmit_timestamp=now,
        )

    @classmethod
    def server_response_wire(
        cls,
        query_wire: bytes,
        server_time: float,
        stratum: int = 2,
        reference_id: str = "",
    ) -> bytes:
        """The wire bytes of the :meth:`server_response` to a query's bytes.

        Byte-identical to ``server_response(decode(query_wire), ...).encode()``
        (pinned by the fast-path property tests) without building either
        packet: the header is cached per (stratum, reference id, poll byte),
        and one pack writes it, the server timestamp in its three slots and
        the query's transmit bytes as the origin timestamp.  The
        caller guarantees ``query_wire`` is at least 48 bytes long.
        """
        if STAGES.enabled:
            started = perf_counter()
            wire = _server_response_wire(query_wire, server_time, stratum, reference_id)
            STAGES.add("ntp_encode", perf_counter() - started)
            return wire
        return _server_response_wire(query_wire, server_time, stratum, reference_id)

    @classmethod
    def kiss_of_death(cls, query: "NTPPacket", code: str = KissCode.RATE) -> "NTPPacket":
        """Build a Kiss-o'-Death response with the given code."""
        return cls(
            mode=NTPMode.SERVER,
            stratum=0,
            poll=max(query.poll, 10),
            reference_id=code,
            origin_timestamp=query.transmit_timestamp,
        )
