"""NTP timestamp format (RFC 5905 section 6).

NTP timestamps are 64-bit fixed-point numbers: 32 bits of seconds since
1900-01-01 and 32 bits of fraction.  The simulator's "true time" is treated
as Unix time, so conversion adds the 70-year era offset.

Hot-path note: the wire layer creates hundreds of thousands of timestamps per
experiment (four per decoded packet).  Construction through the public
``NTPTimestamp(...)`` constructor validates both fields; the wire layer
instead uses :func:`timestamp_from_wire`, which skips validation because
32-bit wire fields are in range by construction, and the all-zero timestamp
(unset fields, the single most common value on the wire) is a shared
singleton returned by :meth:`NTPTimestamp.zero`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds between the NTP epoch (1900) and the Unix epoch (1970).
NTP_UNIX_EPOCH_DELTA = 2_208_988_800

_FRACTION = 1 << 32


@dataclass(frozen=True, order=True, slots=True)
class NTPTimestamp:
    """A 64-bit NTP timestamp (seconds and fraction since 1900)."""

    seconds: int
    fraction: int

    def __post_init__(self) -> None:
        if not 0 <= self.seconds < (1 << 32):
            raise ValueError(f"NTP seconds out of range: {self.seconds}")
        if not 0 <= self.fraction < _FRACTION:
            raise ValueError(f"NTP fraction out of range: {self.fraction}")

    @classmethod
    def from_unix(cls, unix_time: float) -> "NTPTimestamp":
        """Convert a Unix timestamp (float seconds) to NTP format."""
        ntp_time = unix_time + NTP_UNIX_EPOCH_DELTA
        seconds = int(ntp_time)
        fraction = int(round((ntp_time - seconds) * _FRACTION)) % _FRACTION
        return timestamp_from_wire(seconds & 0xFFFFFFFF, fraction)

    def to_unix(self) -> float:
        """Convert back to a Unix timestamp."""
        return self.seconds - NTP_UNIX_EPOCH_DELTA + self.fraction / _FRACTION

    def to_bytes(self) -> bytes:
        """Encode as 8 wire bytes."""
        return self.seconds.to_bytes(4, "big") + self.fraction.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "NTPTimestamp":
        """Decode 8 wire bytes."""
        if len(data) != 8:
            raise ValueError("NTP timestamp must be 8 bytes")
        return timestamp_from_wire(
            int.from_bytes(data[:4], "big"),
            int.from_bytes(data[4:], "big"),
        )

    @classmethod
    def zero(cls) -> "NTPTimestamp":
        """The all-zero timestamp used for unset fields (a shared singleton)."""
        return _ZERO

    def __sub__(self, other: "NTPTimestamp") -> float:
        """Difference between two timestamps in seconds (as a float)."""
        return (
            (self.seconds - other.seconds)
            + (self.fraction - other.fraction) / _FRACTION
        )


_TS_NEW = NTPTimestamp.__new__
_TS_SETATTR = object.__setattr__


def timestamp_from_wire(seconds: int, fraction: int) -> NTPTimestamp:
    """Build a timestamp from two already-valid 32-bit wire values.

    Bypasses the frozen-dataclass constructor (and its range validation,
    which cannot fail for values unpacked from 32-bit wire fields) — this is
    the allocation the packet decoder performs four times per packet.
    """
    if fraction == 0 and seconds == 0:
        return _ZERO
    timestamp = _TS_NEW(NTPTimestamp)
    _TS_SETATTR(timestamp, "seconds", seconds)
    _TS_SETATTR(timestamp, "fraction", fraction)
    return timestamp


def unix_from_wire(seconds: int, fraction: int) -> float:
    """``NTPTimestamp(seconds, fraction).to_unix()`` without the instance.

    Deliberately *not* memoised: server transmit timestamps advance
    monotonically, so a cache here would pay hashing and eviction on every
    response for a ~0% hit rate.  The arithmetic is the fast path.
    """
    return seconds - NTP_UNIX_EPOCH_DELTA + fraction / _FRACTION


#: The shared unset timestamp (``NTPTimestamp.zero()``).
_ZERO = NTPTimestamp(seconds=0, fraction=0)
