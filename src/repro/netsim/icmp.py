"""A minimal ICMP model: just enough for PMTUD abuse.

The attacker triggers fragmentation of DNS responses by sending the
nameserver an ICMP Destination Unreachable / Fragmentation Needed message
(type 3, code 4) carrying a small next-hop MTU.  Real nameserver hosts accept
such messages from anywhere because ICMP is not authenticated; the host model
records the advertised MTU in its path-MTU cache and fragments subsequent
packets to that destination accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum


class ICMPType(IntEnum):
    """ICMP message types used by the simulator."""

    ECHO_REPLY = 0
    DEST_UNREACHABLE = 3
    ECHO_REQUEST = 8
    TIME_EXCEEDED = 11


#: Code within DEST_UNREACHABLE meaning "fragmentation needed and DF set".
FRAG_NEEDED_CODE = 4


@dataclass
class ICMPMessage:
    """An ICMP message.

    ``next_hop_mtu`` is meaningful only for fragmentation-needed messages.
    ``embedded`` optionally carries the first bytes of the offending packet,
    as real ICMP errors do.  No simulated host validates it: every host
    honours off-path forgeries, which is what the attack needs.
    """

    icmp_type: ICMPType
    code: int = 0
    next_hop_mtu: int = 0
    embedded: bytes = b""
    metadata: dict = field(default_factory=dict)

    @property
    def is_frag_needed(self) -> bool:
        """True for Destination Unreachable / Fragmentation Needed."""
        return (
            self.icmp_type is ICMPType.DEST_UNREACHABLE
            and self.code == FRAG_NEEDED_CODE
        )


def frag_needed(mtu: int, embedded: bytes = b"") -> ICMPMessage:
    """Construct a Fragmentation Needed message advertising ``mtu``."""
    return ICMPMessage(
        icmp_type=ICMPType.DEST_UNREACHABLE,
        code=FRAG_NEEDED_CODE,
        next_hop_mtu=mtu,
        embedded=embedded,
    )
