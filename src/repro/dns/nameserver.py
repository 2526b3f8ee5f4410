"""Authoritative nameservers, including the ``pool.ntp.org`` model.

The pool nameserver is the attack's real target: its responses to the victim
resolver are the packets whose second fragment the off-path attacker
replaces.  Two properties measured in the paper are parameters here:

* whether the nameserver honours ICMP fragmentation-needed messages (and the
  minimum fragment size it will go down to) is a property of the *host* it
  runs on; every simulated host honours them down to the 68-byte IPv4
  minimum (see :mod:`repro.netsim.host`), and the measurement package
  models the servers that do not,
* whether the zone is DNSSEC-signed (none of the 30 pool nameservers were).

The pool model also reproduces the operational behaviour the attacks exploit:
four A records per response, rotated over the pool population, with a 150 s
TTL (paper section IV-A).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.dns.dnssec import ZoneSigningKey, sign_rrset
from repro.dns.errors import MessageError
from repro.dns.message import DNSMessage, ResponseCode
from repro.dns.names import normalize_name
from repro.dns.records import ResourceRecord, RRType, a_record, ns_record, txt_record
from repro.dns.zone import Zone
from repro.netsim.host import Host

#: Bound on the per-server encoded-response cache; identical responses are
#: common (fixed rotation, repeated zone answers) but a busy random-rotation
#: pool could otherwise grow the cache without limit.
ENCODE_CACHE_MAX_ENTRIES = 1024

_TXID_STRUCT = struct.Struct("!H")

#: TTL of pool.ntp.org A records as measured in the paper (section IV-A).
POOL_A_RECORD_TTL = 150
#: Number of A records the pool nameservers return per query.
POOL_ADDRESSES_PER_RESPONSE = 4


@dataclass
class NameserverStats:
    """Counters for tests and the measurement studies."""

    queries_received: int = 0
    responses_sent: int = 0
    nxdomain_sent: int = 0
    malformed_queries: int = 0
    encode_cache_hits: int = 0
    encode_cache_misses: int = 0


class AuthoritativeNameserver:
    """Serves one or more zones over UDP port 53 on a simulated host."""

    def __init__(
        self,
        host: Host,
        zones: Optional[Sequence[Zone]] = None,
        signing_keys: Optional[dict[str, ZoneSigningKey]] = None,
        extra_additional: Optional[list[ResourceRecord]] = None,
    ) -> None:
        self.host = host
        self.zones: list[Zone] = list(zones or [])
        self.signing_keys = dict(signing_keys or {})
        #: Records appended to the additional section of every response;
        #: used to model the large responses (glue, mail records...) that
        #: make real-world responses big enough to fragment.
        self.extra_additional = list(extra_additional or [])
        self.stats = NameserverStats()
        #: Encoded response bodies (bytes after the 2-byte TXID) keyed by
        #: :meth:`DNSMessage.wire_cache_key`, so identical responses — e.g.
        #: the pool's rotated answer sets — are not re-encoded per query.
        self._encode_cache: dict[tuple, bytes] = {}
        self.socket = host.bind(53, self._on_query)

    @property
    def ip(self) -> str:
        """The address this nameserver answers on."""
        return self.host.ip

    def zone_for(self, name: str) -> Optional[Zone]:
        """The most specific zone containing ``name``, if any."""
        name = normalize_name(name)
        best: Optional[Zone] = None
        for zone in self.zones:
            if zone.contains(name):
                if best is None or len(zone.origin) > len(best.origin):
                    best = zone
        return best

    # -------------------------------------------------------------- serving
    def _on_query(self, payload: bytes, src_ip: str, src_port: int) -> None:
        try:
            query = DNSMessage.decode_cached(payload)
        except MessageError:
            self.stats.malformed_queries += 1
            return
        if query.is_response or not query.questions:
            self.stats.malformed_queries += 1
            return
        self.stats.queries_received += 1
        response = self.build_response(query)
        self.stats.responses_sent += 1
        if response.flags.rcode is ResponseCode.NXDOMAIN:
            self.stats.nxdomain_sent += 1
        self.socket.sendto(self.encode_response(response), src_ip, src_port)

    def encode_response(self, response: DNSMessage) -> bytes:
        """Encode a response, reusing cached bytes for identical responses.

        The wire form depends on everything except the 2-byte TXID, so the
        cache stores the body keyed by :meth:`DNSMessage.wire_cache_key` and
        prepends the query's TXID.  Responses with unhashable record data
        fall back to a plain encode.
        """
        key = response.wire_cache_key()
        if key is None:
            return response.encode()
        body = self._encode_cache.get(key)
        if body is None:
            self.stats.encode_cache_misses += 1
            if len(self._encode_cache) >= ENCODE_CACHE_MAX_ENTRIES:
                self._encode_cache.clear()
            wire = response.encode()
            self._encode_cache[key] = wire[2:]
            return wire
        self.stats.encode_cache_hits += 1
        return _TXID_STRUCT.pack(response.txid) + body

    def build_response(self, query: DNSMessage) -> DNSMessage:
        """Build the authoritative response for a query (no side effects)."""
        question = query.question
        zone = self.zone_for(question.name)
        if zone is None:
            return query.make_response(rcode=ResponseCode.REFUSED, authoritative=False)

        answers = self.answer_records(zone, question.name, question.rtype)
        rcode = ResponseCode.NOERROR
        if not answers and question.name not in zone.names():
            rcode = ResponseCode.NXDOMAIN
        response = query.make_response(answers=answers, rcode=rcode)
        self._attach_signatures(zone, response)
        self._attach_authority(zone, response)
        response.additional.extend(self.extra_additional)
        return response

    def answer_records(self, zone: Zone, name: str, rtype: RRType) -> list[ResourceRecord]:
        """Answer-section records for a question (CNAMEs followed one level)."""
        records = zone.lookup(name, rtype)
        if records or rtype is RRType.CNAME:
            return list(records)
        cnames = zone.lookup(name, RRType.CNAME)
        if cnames:
            target = str(cnames[0].data)
            return list(cnames) + zone.lookup(target, rtype)
        return []

    def _attach_signatures(self, zone: Zone, response: DNSMessage) -> None:
        key = self.signing_keys.get(zone.origin)
        if not zone.signed or key is None or not response.answers:
            return
        rrsets: dict[tuple[str, RRType], list[ResourceRecord]] = {}
        for record in response.answers:
            rrsets.setdefault(record.key, []).append(record)
        for rrset in rrsets.values():
            response.answers.append(sign_rrset(key, rrset))

    def _attach_authority(self, zone: Zone, response: DNSMessage) -> None:
        ns_records = zone.lookup(zone.origin, RRType.NS)
        response.authority.extend(ns_records)
        for ns in ns_records:
            response.additional.extend(zone.lookup(str(ns.data), RRType.A))


class PoolNameserver(AuthoritativeNameserver):
    """Model of the ``pool.ntp.org`` nameservers.

    Every A query under the pool origin is answered with
    ``addresses_per_response`` addresses drawn from the pool population.  The
    draw is random without replacement per query (``rotation="random"``,
    matching the real pool's behaviour) or a fixed prefix
    (``rotation="fixed"``, the predictable-tail ablation the attack benefits
    from).  NS records and glue are attached, which is what pushes responses
    over fragmentation thresholds once the attacker lowers the path MTU.
    """

    def __init__(
        self,
        host: Host,
        pool_addresses: Sequence[str],
        origin: str = "pool.ntp.org",
        nameserver_names: Optional[Sequence[str]] = None,
        rotation: str = "random",
        addresses_per_response: int = POOL_ADDRESSES_PER_RESPONSE,
        record_ttl: int = POOL_A_RECORD_TTL,
        rng: Optional[np.random.Generator] = None,
        response_padding: int = 0,
    ) -> None:
        self.origin = normalize_name(origin)
        self.pool_addresses = list(pool_addresses)
        self.rotation = rotation
        self.addresses_per_response = addresses_per_response
        self.record_ttl = record_ttl
        self.response_padding = response_padding
        self._rng = rng or np.random.default_rng(0)
        zone = Zone(origin=self.origin)
        names = list(
            nameserver_names
            or [f"ns{i}.{self.origin}" for i in range(1, 3)]
        )
        for index, ns_name in enumerate(names):
            zone.add(ns_record(self.origin, ns_name))
            zone.add(a_record(ns_name, f"198.51.100.{index + 1}", ttl=86400))
        super().__init__(host, zones=[zone])

    def select_addresses(self, qname: str) -> list[str]:
        """Pick the addresses returned for one query."""
        count = min(self.addresses_per_response, len(self.pool_addresses))
        if self.rotation == "fixed":
            return self.pool_addresses[:count]
        indices = self._rng.choice(len(self.pool_addresses), size=count, replace=False)
        return [self.pool_addresses[int(i)] for i in indices]

    def build_response(self, query: DNSMessage) -> DNSMessage:
        question = query.question
        zone = self.zone_for(question.name)
        if zone is None:
            return query.make_response(rcode=ResponseCode.REFUSED, authoritative=False)
        if question.rtype is RRType.A and not zone.lookup(question.name, RRType.A):
            answers = [
                a_record(question.name, address, ttl=self.record_ttl)
                for address in self.select_addresses(question.name)
            ]
            response = query.make_response(answers=answers)
            self._attach_authority(zone, response)
            if self.response_padding > 0:
                response.additional.append(
                    txt_record(
                        f"info.{self.origin}", "x" * self.response_padding, ttl=60
                    )
                )
            response.additional.extend(self.extra_additional)
            return response
        return super().build_response(query)
