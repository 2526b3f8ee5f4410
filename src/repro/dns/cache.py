"""The resolver cache — the asset the attacker poisons.

Entries are keyed by ``(owner name, record type)`` and expire according to
their TTL.  The cache exposes exactly the observable behaviours the paper's
measurements rely on:

* :meth:`DNSCache.lookup` with the current time returns records with their
  *remaining* TTL, which is what the cache-snooping study (Table IV) and the
  TTL histogram (Figure 6) observe from outside,
* a poisoned entry with a very long TTL shadows subsequent upstream queries,
  which is what ends Chronos' pool-generation early (section VI-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.dns.names import normalize_name
from repro.dns.records import ResourceRecord, RRType


@dataclass
class CacheEntry:
    """An rrset stored in the cache with its insertion time."""

    records: list[ResourceRecord]
    inserted_at: float
    ttl: int

    def remaining_ttl(self, now: float) -> float:
        """Seconds of validity left at time ``now`` (may be negative)."""
        return self.ttl - (now - self.inserted_at)

    def expired(self, now: float) -> bool:
        """True once the entry's TTL has elapsed."""
        return self.remaining_ttl(now) <= 0


@dataclass
class DNSCache:
    """A TTL-respecting cache of rrsets.

    ``max_ttl`` caps the TTL the cache will honour (many resolvers clamp to a
    week); the Chronos attack relies on the cap being no smaller than 24
    hours so a single poisoned record outlives the whole pool-generation
    period.
    """

    max_ttl: int = 7 * 24 * 3600
    entries: dict[tuple[str, RRType], CacheEntry] = field(default_factory=dict)
    insertions: int = 0
    hits: int = 0
    misses: int = 0

    def store(self, records: Iterable[ResourceRecord], now: float) -> None:
        """Insert records grouped by (name, type); later stores overwrite."""
        grouped: dict[tuple[str, RRType], list[ResourceRecord]] = {}
        for record in records:
            grouped.setdefault(record.key, []).append(record)
        for key, rrset in grouped.items():
            ttl = min(min(r.ttl for r in rrset), self.max_ttl)
            self.entries[key] = CacheEntry(records=rrset, inserted_at=now, ttl=ttl)
            self.insertions += 1

    def lookup(self, name: str, rtype: RRType, now: float) -> Optional[list[ResourceRecord]]:
        """Return cached records with decremented TTLs, or None on a miss."""
        key = (normalize_name(name), rtype)
        entry = self.entries.get(key)
        if entry is None or entry.expired(now):
            if entry is not None:
                del self.entries[key]
            self.misses += 1
            return None
        self.hits += 1
        remaining = int(entry.remaining_ttl(now))
        return [record.with_ttl(remaining) for record in entry.records]

    def remaining_ttl(self, name: str, rtype: RRType, now: float) -> Optional[float]:
        """Remaining TTL of a cached entry, or None when absent/expired."""
        key = (normalize_name(name), rtype)
        entry = self.entries.get(key)
        if entry is None or entry.expired(now):
            return None
        return entry.remaining_ttl(now)
