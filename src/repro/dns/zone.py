"""Authoritative zone data."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dns.names import name_in_zone, normalize_name
from repro.dns.records import ResourceRecord, RRType, soa_record


@dataclass
class Zone:
    """A DNS zone: an origin name plus its resource records.

    The zone is the unit served by an authoritative nameserver and the unit
    signed by DNSSEC.  Record lookup is exact-match on (owner name, type),
    with ANY returning every record at the owner name.
    """

    origin: str
    records: list[ResourceRecord] = field(default_factory=list)
    signed: bool = False
    key_tag: int | None = None

    def __post_init__(self) -> None:
        self.origin = normalize_name(self.origin)
        if not any(r.rtype is RRType.SOA for r in self.records):
            self.records.insert(0, soa_record(self.origin, f"ns1.{self.origin}"))

    def contains(self, name: str) -> bool:
        """True when ``name`` falls inside this zone."""
        return name_in_zone(name, self.origin)

    def add(self, record: ResourceRecord) -> None:
        """Add one record to the zone (must be inside the zone)."""
        if not self.contains(record.name):
            raise ValueError(f"{record.name} is outside zone {self.origin}")
        self.records.append(record)

    def lookup(self, name: str, rtype: RRType) -> list[ResourceRecord]:
        """Return records matching ``name`` and ``rtype`` (or ANY)."""
        name = normalize_name(name)
        if rtype is RRType.ANY:
            return [r for r in self.records if r.name == name]
        return [r for r in self.records if r.name == name and r.rtype is rtype]

    def names(self) -> set[str]:
        """All owner names present in the zone."""
        return {record.name for record in self.records}
