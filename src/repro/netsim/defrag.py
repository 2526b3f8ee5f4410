"""The IP defragmentation cache — the attack's point of entry.

When a host receives an IP fragment it stores it in a per-``(src, dst,
protocol, IPID)`` bucket until the remaining fragments arrive or a timeout
expires.  The paper's poisoning primitive (section III) works by planting a
spoofed *second* fragment in the victim resolver's defragmentation cache
ahead of time; when the genuine first fragment from the nameserver arrives it
reassembles with the attacker's fragment.

Three properties of real caches matter for the attack and are modelled here:

* the reassembly timeout (measured by the authors as 30 s on Linux and
  60–120 s on Windows; RFC 2460 specifies 60 s), which determines how often
  the attacker must refresh its planted fragment,
* the limit on how many fragments with *different IPIDs* a host will hold for
  the same source/destination pair (64 on patched Linux, 100 on Windows),
  which bounds how many candidate IPIDs the attacker can spray when the IPID
  is not exactly predictable, and
* overlap resolution: every modelled OS keeps the first copy of a fragment,
  so a planted fragment wins over the genuine one that arrives later.

Hosts build the cache with its Linux defaults (30 s, 64 buckets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.netsim.fragmentation import fragments_complete, reassemble_fragments
from repro.netsim.packet import IPv4Packet


@dataclass
class _Bucket:
    """Fragments collected so far for one reassembly key."""

    fragments: list[IPv4Packet] = field(default_factory=list)
    created_at: float = 0.0


@dataclass
class DefragStats:
    """Counters exposed for tests and the attack-surface measurements."""

    fragments_received: int = 0
    packets_reassembled: int = 0
    buckets_expired: int = 0
    fragments_dropped_limit: int = 0
    spoofed_fragments_used: int = 0


class DefragmentationCache:
    """Per-host fragment reassembly cache.

    Parameters
    ----------
    timeout:
        Reassembly timeout in seconds; buckets older than this are purged.
    max_pending_per_peer:
        Maximum number of distinct IPID buckets held per (src, dst) pair;
        models the 64/100 fragment limits of patched Linux and Windows.

    A fragment at an offset the bucket already holds is dropped: the first
    received copy of any byte wins.
    """

    def __init__(
        self, timeout: float = 30.0, max_pending_per_peer: int = 64
    ) -> None:
        self.timeout = timeout
        self.max_pending_per_peer = max_pending_per_peer
        self.stats = DefragStats()
        self._buckets: dict[tuple, _Bucket] = {}

    def pending_buckets(self) -> int:
        """Number of incomplete reassembly buckets currently held."""
        return len(self._buckets)

    def pending_for_peer(self, src: str, dst: str) -> int:
        """Number of buckets held for one (src, dst) pair."""
        return sum(1 for key in self._buckets if key[0] == src and key[1] == dst)

    def purge_expired(self, now: float) -> int:
        """Drop buckets older than the reassembly timeout; returns the count."""
        if not self._buckets:
            # Fast path: most receives happen with no reassembly in flight.
            return 0
        expired = [
            key
            for key, bucket in self._buckets.items()
            if now - bucket.created_at >= self.timeout
        ]
        for key in expired:
            del self._buckets[key]
        self.stats.buckets_expired += len(expired)
        return len(expired)

    def add_fragment(self, fragment: IPv4Packet, now: float) -> Optional[IPv4Packet]:
        """Insert one fragment; return the reassembled packet when complete.

        Non-fragment packets are returned unchanged.  Fragments that would
        exceed the per-peer bucket limit are dropped, which is what bounds the
        attacker's IPID spraying.
        """
        self.purge_expired(now)
        if not fragment.is_fragment:
            return fragment

        self.stats.fragments_received += 1
        key = fragment.fragment_key
        if key not in self._buckets:
            if self.pending_for_peer(fragment.src, fragment.dst) >= self.max_pending_per_peer:
                self.stats.fragments_dropped_limit += 1
                return None
            self._buckets[key] = _Bucket(created_at=now)

        bucket = self._buckets[key]
        self._insert(bucket, fragment)

        if fragments_complete(bucket.fragments):
            del self._buckets[key]
            packet = reassemble_fragments(bucket.fragments)
            self.stats.packets_reassembled += 1
            if any(f.metadata.get("spoofed") for f in bucket.fragments):
                self.stats.spoofed_fragments_used += 1
                packet.metadata["reassembled_with_spoofed_fragment"] = True
            return packet
        return None

    def _insert(self, bucket: _Bucket, fragment: IPv4Packet) -> None:
        """Insert a fragment into a bucket; an offset already held keeps its
        first copy and drops the newcomer."""
        offset = fragment.fragment_offset
        if any(existing.fragment_offset == offset for existing in bucket.fragments):
            return
        bucket.fragments.append(fragment)

    def planted_fragments(self, src: str, dst: str) -> list[IPv4Packet]:
        """Return spoofed fragments currently waiting for a given peer pair.

        Used by tests and by the attacker model to check whether its planted
        fragment is still alive or needs refreshing (every ``timeout``
        seconds, i.e. the "5 spoofed fragments per 150 s TTL window" bound of
        section IV-A).
        """
        waiting: list[IPv4Packet] = []
        for key, bucket in self._buckets.items():
            if key[0] == src and key[1] == dst:
                waiting.extend(
                    f for f in bucket.fragments if f.metadata.get("spoofed")
                )
        return waiting
