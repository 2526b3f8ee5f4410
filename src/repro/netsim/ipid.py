"""IPID assignment: one global counter per host.

The 16-bit IP identification field groups fragments of the same original
packet.  Whether an off-path attacker can plant a spoofed fragment that will
be reassembled with a genuine one depends on how predictable the sender's
IPID sequence is.  The paper (section III-2) relies on the well-known fact
that many operating systems assign IPIDs from a *globally incrementing*
counter, which an attacker can sample by sending its own queries and then
extrapolate.  Every simulated host uses that counter; a test that needs
another start value assigns ``host.ipid_allocator``.
"""

from __future__ import annotations


class GlobalCounterIPID:
    """A single counter shared by all destinations (classic Linux/Windows).

    This is the vulnerable policy: the attacker queries the nameserver a few
    times from its own host, observes consecutive IPIDs, and extrapolates the
    value that will be used for the response to the victim resolver.
    """

    def __init__(self, start: int = 0) -> None:
        self._counter = start & 0xFFFF

    def next_ipid(self, dst: str) -> int:
        value = self._counter
        self._counter = (value + 1) & 0xFFFF
        return value
