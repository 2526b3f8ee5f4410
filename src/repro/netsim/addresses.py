"""IPv4 address helpers.

Addresses are passed around as dotted-quad strings (the most readable
representation in logs and tests); this module provides conversion to and
from 32-bit integers plus a tiny value type used where a distinct type aids
readability (e.g. attacker address pools).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.netsim.errors import AddressError

# The simulator converts the same handful of testbed/pool addresses millions
# of times per experiment (every packet encode, UDP checksum and fragment
# touches them), so the string<->int conversions are memoised.  Addresses are
# immutable strings and the functions are pure, which makes caching safe.


@lru_cache(maxsize=65536)
def ip_to_int(address: str) -> int:
    """Convert a dotted-quad IPv4 address to its 32-bit integer value.

    Raises :class:`AddressError` if the string is not a valid IPv4 address.
    """
    parts = address.split(".")
    if len(parts) != 4:
        raise AddressError(f"not a dotted quad: {address!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"non-numeric octet in {address!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {address!r}")
        value = (value << 8) | octet
    return value


@lru_cache(maxsize=65536)
def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to a dotted-quad IPv4 address string."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise AddressError(f"value out of range for IPv4: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@lru_cache(maxsize=65536)
def ip_to_bytes(address: str) -> bytes:
    """The 4-byte big-endian wire form of a dotted-quad address (cached)."""
    return ip_to_int(address).to_bytes(4, "big")


@dataclass(frozen=True, order=True)
class IPv4Address:
    """A validated IPv4 address value object.

    Most of the simulator accepts plain strings for convenience; this class
    exists for code that wants validation or ordering semantics (e.g. address
    pool generators).
    """

    value: int

    @classmethod
    def parse(cls, address: str) -> "IPv4Address":
        """Parse a dotted-quad string into an :class:`IPv4Address`."""
        return cls(ip_to_int(address))

    def __str__(self) -> str:
        return int_to_ip(self.value)

    def offset(self, delta: int) -> "IPv4Address":
        """Return the address ``delta`` positions away (wrapping at 2^32)."""
        return IPv4Address((self.value + delta) % (1 << 32))


def address_range(start: str, count: int) -> list[str]:
    """Generate ``count`` consecutive addresses starting at ``start``.

    Used to build attacker-controlled address pools (e.g. the 89 addresses
    injected in the Chronos attack) and synthetic server populations.
    """
    base = IPv4Address.parse(start)
    return [str(base.offset(i)) for i in range(count)]
