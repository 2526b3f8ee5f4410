"""UDP datagrams with real RFC 768 checksums.

The checksum is computed over the IPv4 pseudo-header (source address,
destination address, protocol, UDP length) plus the UDP header and payload.
Because the checksum field travels in the *first* fragment of a fragmented
datagram, an off-path attacker who replaces the second fragment must craft
its payload so the overall ones'-complement sum is unchanged — the core
arithmetic trick of the paper's poisoning primitive.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

from repro.netsim.addresses import ip_to_int
from repro.netsim.errors import PacketError

UDP_HEADER_LEN = 8

#: Precompiled codec for the per-datagram hot path.  (The IPv4 pseudo-header
#: is never materialised as bytes: ``udp_checksum_arith`` assembles its word
#: sum arithmetically.)
_UDP_HEADER = struct.Struct("!HHHH")


@dataclass(slots=True)
class UDPDatagram:
    """A UDP datagram (header fields plus application payload)."""

    src_port: int
    dst_port: int
    payload: bytes

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 0xFFFF:
                raise PacketError(f"UDP port out of range: {port}")

    @property
    def length(self) -> int:
        """The UDP length field (header plus payload)."""
        return UDP_HEADER_LEN + len(self.payload)


@lru_cache(maxsize=65536)
def _address_word_sum(address: str) -> int:
    """The sum of an address's two 16-bit words (cached, bounded)."""
    value = ip_to_int(address)
    return (value >> 16) + (value & 0xFFFF)


def udp_checksum(src_ip: str, dst_ip: str, datagram: UDPDatagram) -> int:
    """Compute the UDP checksum for a datagram between two IPv4 addresses."""
    return udp_checksum_arith(
        src_ip, dst_ip, datagram.src_port, datagram.dst_port, datagram.payload
    )


def udp_checksum_arith(
    src_ip: str, dst_ip: str, src_port: int, dst_port: int, payload: bytes
) -> int:
    """The UDP checksum from raw header fields (the one implementation).

    Rather than materialising pseudo-header + header bytes and summing the
    concatenation, the word sum is assembled arithmetically: the address
    word sums are cached, the protocol/length/port words are added
    directly, and only the payload is reduced from bytes.  Byte-for-byte
    equivalence with the seed implementation is pinned by the fast-path
    property tests.  Deliberately not memoised: sent payloads are fresh
    and received ones are verified once, so a memo would never hit.
    """
    length = UDP_HEADER_LEN + len(payload)
    return _fold_checksum(
        _address_word_sum(src_ip)
        + _address_word_sum(dst_ip)
        + length
        + length
        + src_port
        + dst_port
        + payload_word_sum(payload)
    )


def _fold_checksum(word_total: int) -> int:
    """Fold a pseudo-header word total (protocol word excluded) to RFC 768.

    The caller's total omits the constant protocol word (17), added here.
    Because ``2**16 ≡ 1 (mod 0xFFFF)``, folding is a single modulo; the
    total is always positive (the nonzero length field contributes twice),
    so the multiple-of-0xFFFF case folds to ``0xFFFF`` exactly as a 16-bit
    word loop does.
    """
    folded = (word_total + 17) % 0xFFFF
    checksum = ~(folded if folded else 0xFFFF) & 0xFFFF
    # RFC 768: a computed checksum of zero is transmitted as all ones.
    return checksum if checksum != 0 else 0xFFFF


def payload_word_sum(payload: bytes) -> int:
    """The folded 16-bit word sum of a payload (odd lengths zero-padded).

    Spoofing loops that send many datagrams with the same payload compute
    this once and combine it with cached address sums via
    :func:`udp_checksum_from_sums`.
    """
    if len(payload) & 1:
        payload = payload + b"\x00"
    return int.from_bytes(payload, "big") % 0xFFFF


def udp_checksum_from_sums(
    src_sum: int,
    dst_sum: int,
    src_port: int,
    dst_port: int,
    length: int,
    payload_sum: int,
) -> int:
    """Checksum from precomputed address/payload word sums.

    ``src_sum``/``dst_sum`` come from :func:`_address_word_sum`,
    ``payload_sum`` from :func:`payload_word_sum`, and ``length`` is the
    UDP length field (header + payload bytes).  Bit-identical to
    :func:`udp_checksum` by construction (pinned by property tests).
    """
    return _fold_checksum(
        src_sum + dst_sum + length + length + src_port + dst_port + payload_sum
    )


def encode_udp(src_ip: str, dst_ip: str, datagram: UDPDatagram) -> bytes:
    """Encode a datagram (header + payload) with its checksum filled in."""
    checksum = udp_checksum(src_ip, dst_ip, datagram)
    header = _UDP_HEADER.pack(
        datagram.src_port, datagram.dst_port, datagram.length, checksum
    )
    return header + datagram.payload


def decode_udp(
    src_ip: str, dst_ip: str, data: bytes, verify: bool = True
) -> UDPDatagram:
    """Decode UDP bytes, optionally verifying length and checksum.

    Raises :class:`PacketError` when the datagram is truncated, its length
    field disagrees with the data, or (when ``verify`` is true) the checksum
    does not match.  The checksum rejection path is exactly what defeats a
    naive fragment-replacement attack that does not fix the checksum.
    """
    if len(data) < UDP_HEADER_LEN:
        raise PacketError("truncated UDP header")
    src_port, dst_port, length, checksum = _UDP_HEADER.unpack_from(data)
    if length != len(data):
        raise PacketError(f"UDP length mismatch: field={length}, actual={len(data)}")
    # Construct without __post_init__: 16-bit wire fields are in range by
    # construction, so the port validation cannot fire on this path.
    datagram = UDPDatagram.__new__(UDPDatagram)
    datagram.src_port = src_port
    datagram.dst_port = dst_port
    datagram.payload = data[UDP_HEADER_LEN:]
    if verify and checksum != 0:
        expected = udp_checksum(src_ip, dst_ip, datagram)
        if expected != checksum:
            raise PacketError(
                f"UDP checksum mismatch: expected {expected:#06x}, got {checksum:#06x}"
            )
    return datagram
