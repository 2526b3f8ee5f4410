"""IPv4 packet model with byte-accurate header encoding.

Fragment-replacement cache poisoning depends on the exact on-the-wire layout
of IPv4 fragments: the fragment offset is measured in 8-byte units, the
"more fragments" (MF) flag distinguishes first and last fragments, and the
16-bit IPID ties fragments of the same original packet together.  This module
models the subset of the IPv4 header the attack needs and can encode and
decode it to real bytes so tests can verify the wire layout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from enum import IntEnum

from repro.netsim.addresses import int_to_ip, ip_to_bytes
from repro.netsim.checksum import internet_checksum
from repro.netsim.errors import PacketError

IPV4_HEADER_LEN = 20
IPV4_MAX_PACKET = 65535

#: Precompiled header codec — struct.Struct avoids re-parsing the format
#: string on every encode/decode, which the per-packet hot path hits hard.
_IPV4_HEADER = struct.Struct("!BBHHHBBH4s4s")


class IPProtocol(IntEnum):
    """IP protocol numbers used by the simulator."""

    ICMP = 1
    TCP = 6
    UDP = 17


@dataclass(slots=True)
class IPv4Packet:
    """A (possibly fragmented) IPv4 packet.

    ``payload`` holds the bytes after the IP header.  For the first fragment
    of a UDP packet this begins with the 8-byte UDP header; for subsequent
    fragments it is a slice of the original UDP payload, which is exactly what
    lets the off-path attacker replace the tail of a DNS response without
    touching the UDP checksum field.
    """

    src: str
    dst: str
    protocol: IPProtocol
    payload: bytes
    ipid: int = 0
    ttl: int = 64
    dont_fragment: bool = False
    more_fragments: bool = False
    fragment_offset: int = 0  # in 8-byte units, like the wire format
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.ipid <= 0xFFFF:
            raise PacketError(f"IPID out of range: {self.ipid}")
        if not 0 <= self.fragment_offset <= 0x1FFF:
            raise PacketError(f"fragment offset out of range: {self.fragment_offset}")
        if len(self.payload) + IPV4_HEADER_LEN > IPV4_MAX_PACKET:
            raise PacketError("payload too large for an IPv4 packet")

    @classmethod
    def udp(cls, src: str, dst: str, payload: bytes, ipid: int) -> "IPv4Packet":
        """Fast constructor for the per-datagram hot path.

        Direct slot assignment skips the 10-field ``__init__`` and the
        validation in ``__post_init__`` — callers pass an already-masked
        16-bit IPID and a payload below the IPv4 maximum (UDP payloads are
        bounded well under it by the senders).
        """
        packet = cls.__new__(cls)
        packet.src = src
        packet.dst = dst
        packet.protocol = IPProtocol.UDP
        packet.payload = payload
        packet.ipid = ipid
        packet.ttl = 64
        packet.dont_fragment = False
        packet.more_fragments = False
        packet.fragment_offset = 0
        packet.metadata = {}
        return packet

    @property
    def total_length(self) -> int:
        """Total packet length including the 20-byte header."""
        return IPV4_HEADER_LEN + len(self.payload)

    @property
    def is_fragment(self) -> bool:
        """True when this packet is one fragment of a larger packet."""
        return self.more_fragments or self.fragment_offset > 0

    @property
    def is_first_fragment(self) -> bool:
        """True for the fragment carrying the transport header (offset 0)."""
        return self.is_fragment and self.fragment_offset == 0

    @property
    def fragment_key(self) -> tuple[str, str, int, int]:
        """The reassembly key: (src, dst, protocol, IPID).

        Fragments sharing this key are reassembled together, which is why an
        off-path attacker who can predict the IPID can have its spoofed
        fragment reassembled with the genuine first fragment.
        """
        return (self.src, self.dst, int(self.protocol), self.ipid)

    def copy(self, **changes) -> "IPv4Packet":
        """Return a copy with the given fields replaced."""
        return replace(self, metadata=dict(self.metadata), **changes)

    def encode(self) -> bytes:
        """Encode to wire bytes (20-byte header, no options, + payload)."""
        version_ihl = (4 << 4) | 5
        flags = 0
        if self.dont_fragment:
            flags |= 0x2
        if self.more_fragments:
            flags |= 0x1
        flags_fragoff = (flags << 13) | self.fragment_offset
        src_bytes = ip_to_bytes(self.src)
        dst_bytes = ip_to_bytes(self.dst)
        header_wo_checksum = _IPV4_HEADER.pack(
            version_ihl,
            0,
            IPV4_HEADER_LEN + len(self.payload),
            self.ipid,
            flags_fragoff,
            self.ttl,
            int(self.protocol),
            0,
            src_bytes,
            dst_bytes,
        )
        checksum = internet_checksum(header_wo_checksum)
        header = _IPV4_HEADER.pack(
            version_ihl,
            0,
            IPV4_HEADER_LEN + len(self.payload),
            self.ipid,
            flags_fragoff,
            self.ttl,
            int(self.protocol),
            checksum,
            src_bytes,
            dst_bytes,
        )
        return header + self.payload

    @classmethod
    def decode(cls, data: bytes) -> "IPv4Packet":
        """Decode wire bytes produced by :meth:`encode`."""
        if len(data) < IPV4_HEADER_LEN:
            raise PacketError("truncated IPv4 header")
        (
            version_ihl,
            _tos,
            total_length,
            ipid,
            flags_fragoff,
            ttl,
            protocol,
            _checksum,
            src_bytes,
            dst_bytes,
        ) = _IPV4_HEADER.unpack(data[:IPV4_HEADER_LEN])
        if version_ihl >> 4 != 4:
            raise PacketError("not an IPv4 packet")
        if total_length != len(data):
            raise PacketError(
                f"length mismatch: header says {total_length}, got {len(data)}"
            )
        flags = flags_fragoff >> 13
        return cls(
            src=int_to_ip(int.from_bytes(src_bytes, "big")),
            dst=int_to_ip(int.from_bytes(dst_bytes, "big")),
            protocol=IPProtocol(protocol),
            payload=data[IPV4_HEADER_LEN:],
            ipid=ipid,
            ttl=ttl,
            dont_fragment=bool(flags & 0x2),
            more_fragments=bool(flags & 0x1),
            fragment_offset=flags_fragoff & 0x1FFF,
        )
