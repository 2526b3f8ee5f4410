"""Caching recursive resolvers — the victims of the poisoning attack.

The resolver accepts client queries on UDP port 53, answers from its cache
when possible, and otherwise forwards the question to the authoritative
nameserver responsible for the zone (looked up in a static delegation map —
a simplification of full iterative resolution that preserves everything the
attack cares about: one upstream UDP exchange per cache miss, protected only
by source-port and TXID randomisation plus a bailiwick check).

Resolver behaviours measured in the paper and modelled here:

* **RD=0 handling** — answering non-recursive queries from cache only, the
  hook used by the cache-snooping study (Table IV / Figure 6),
* **fragmented-response acceptance** — a property of the host profile
  (``drops_fragments``); about a third of resolvers accept fragments,
* **DNSSEC validation** — performed by 19–29 % of clients' resolvers; the
  resolver validates only zones for which it has a trust anchor and the
  zone is actually signed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dns.cache import DNSCache
from repro.dns.dnssec import ZoneSigningKey, validate_rrset
from repro.dns.errors import MessageError
from repro.dns.message import DNSMessage, ResponseCode
from repro.dns.names import name_in_zone, normalize_name, parent_zones
from repro.dns.records import ResourceRecord, RRType
from repro.netsim.host import Host
from repro.netsim.simulator import Simulator
from repro.netsim.sockets import UDPSocket


@dataclass
class ResolverConfig:
    """Tunable resolver behaviour."""

    validate_dnssec: bool = False
    query_timeout: float = 2.0
    max_retries: int = 2
    max_cache_ttl: int = 7 * 24 * 3600
    honor_rd_zero: bool = True
    open_resolver: bool = True
    minimum_ttl: int = 0


@dataclass
class ResolverStats:
    """Counters used throughout the tests and measurement studies."""

    client_queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    upstream_queries: int = 0
    upstream_timeouts: int = 0
    servfail_sent: int = 0
    validation_failures: int = 0
    rejected_mismatched_responses: int = 0
    rd_zero_queries: int = 0


@dataclass
class _PendingQuery:
    """State for one in-flight upstream query."""

    client_ip: str
    client_port: int
    client_query: DNSMessage
    upstream_ip: str
    question_name: str
    question_type: RRType
    txid: int
    socket: UDPSocket
    retries_left: int
    timeout_event: object = None


class RecursiveResolver:
    """A caching recursive resolver bound to port 53 of a simulated host."""

    def __init__(
        self,
        host: Host,
        simulator: Simulator,
        zone_map: dict[str, str],
        config: Optional[ResolverConfig] = None,
        trust_anchors: Optional[dict[str, ZoneSigningKey]] = None,
    ) -> None:
        self.host = host
        self.simulator = simulator
        #: Maps zone origin -> authoritative nameserver IP.
        self.zone_map = {normalize_name(zone): ip for zone, ip in zone_map.items()}
        self.config = config or ResolverConfig()
        self.trust_anchors = dict(trust_anchors or {})
        self.cache = DNSCache(max_ttl=self.config.max_cache_ttl)
        self.stats = ResolverStats()
        self._rng = simulator.spawn_rng()
        self._pending: list[_PendingQuery] = []
        self.server_socket = host.bind(53, self._on_client_query)

    @property
    def ip(self) -> str:
        """The address clients send their queries to."""
        return self.host.ip

    # --------------------------------------------------------------- client
    def _on_client_query(self, payload: bytes, src_ip: str, src_port: int) -> None:
        try:
            query = DNSMessage.decode_cached(payload)
        except MessageError:
            return
        if query.is_response or not query.questions:
            return
        self.stats.client_queries += 1
        question = query.question
        now = self.simulator.now

        if not query.flags.rd:
            self.stats.rd_zero_queries += 1
            if self.config.honor_rd_zero:
                self._answer_from_cache_only(query, src_ip, src_port)
                return

        cached = self.cache.lookup(question.name, question.rtype, now)
        if cached is not None:
            self.stats.cache_hits += 1
            self._send_response(query, cached, src_ip, src_port)
            return
        self.stats.cache_misses += 1
        self._query_upstream(query, src_ip, src_port)

    def _answer_from_cache_only(self, query: DNSMessage, src_ip: str, src_port: int) -> None:
        question = query.question
        cached = self.cache.lookup(question.name, question.rtype, self.simulator.now)
        if cached is not None:
            self.stats.cache_hits += 1
            self._send_response(query, cached, src_ip, src_port)
        else:
            self.stats.cache_misses += 1
            self._send_response(query, [], src_ip, src_port)

    def _send_response(
        self,
        query: DNSMessage,
        answers: list[ResourceRecord],
        src_ip: str,
        src_port: int,
        rcode: ResponseCode = ResponseCode.NOERROR,
    ) -> None:
        response = query.make_response(
            answers=answers,
            rcode=rcode,
            authoritative=False,
            recursion_available=True,
            authenticated=self._answers_validated(query, answers),
        )
        self.server_socket.sendto(response.encode(), src_ip, src_port)

    def _answers_validated(self, query: DNSMessage, answers: list[ResourceRecord]) -> bool:
        """Whether the AD bit should be set on a response to the client."""
        if not self.config.validate_dnssec or not answers:
            return False
        return self._anchor_for(query.question.name) is not None

    # ------------------------------------------------------------- upstream
    def nameserver_for(self, name: str) -> Optional[str]:
        """The authoritative nameserver IP for ``name`` per the delegation map."""
        name = normalize_name(name)
        for zone in [name] + parent_zones(name):
            if zone in self.zone_map:
                return self.zone_map[zone]
        return None

    def _anchor_for(self, name: str) -> Optional[ZoneSigningKey]:
        for zone, key in self.trust_anchors.items():
            if name_in_zone(name, zone):
                return key
        return None

    def _query_upstream(
        self,
        client_query: DNSMessage,
        client_ip: str,
        client_port: int,
    ) -> None:
        question = client_query.question
        upstream_ip = self.nameserver_for(question.name)
        if upstream_ip is None:
            self.stats.servfail_sent += 1
            self._send_response(
                client_query, [], client_ip, client_port, ResponseCode.SERVFAIL
            )
            return

        txid = int(self._rng.integers(0, 1 << 16))
        socket = self.host.bind(0)
        pending = _PendingQuery(
            client_ip=client_ip,
            client_port=client_port,
            client_query=client_query,
            upstream_ip=upstream_ip,
            question_name=question.name,
            question_type=question.rtype,
            txid=txid,
            socket=socket,
            retries_left=self.config.max_retries,
        )
        socket.on_datagram = lambda payload, ip, port: self._on_upstream_response(
            pending, payload, ip, port
        )
        self._pending.append(pending)
        self._send_upstream(pending)

    def _send_upstream(self, pending: _PendingQuery) -> None:
        self.stats.upstream_queries += 1
        query = DNSMessage.query(
            pending.question_name, pending.question_type, txid=pending.txid
        )
        pending.socket.sendto(query.encode(), pending.upstream_ip, 53)
        pending.timeout_event = self.simulator.schedule(
            self.config.query_timeout,
            lambda: self._on_upstream_timeout(pending),
            label=f"resolver-timeout {pending.question_name}",
        )

    def _on_upstream_timeout(self, pending: _PendingQuery) -> None:
        if pending not in self._pending:
            return
        self.stats.upstream_timeouts += 1
        if pending.retries_left > 0:
            pending.retries_left -= 1
            self._send_upstream(pending)
            return
        self._finish(pending, [], ResponseCode.SERVFAIL)

    def _on_upstream_response(
        self, pending: _PendingQuery, payload: bytes, src_ip: str, src_port: int
    ) -> None:
        if pending not in self._pending:
            return
        # Challenge-response checks: source address/port and TXID must match.
        if src_ip != pending.upstream_ip or src_port != 53:
            self.stats.rejected_mismatched_responses += 1
            return
        try:
            response = DNSMessage.decode_cached(payload)
        except MessageError:
            self.stats.rejected_mismatched_responses += 1
            return
        if not response.is_response or response.txid != pending.txid:
            self.stats.rejected_mismatched_responses += 1
            return
        if not response.questions or response.question.key != (
            pending.question_name,
            pending.question_type,
        ):
            self.stats.rejected_mismatched_responses += 1
            return

        accepted = self._accept_records(pending, response)
        if accepted is None:
            self._finish(pending, [], ResponseCode.SERVFAIL)
            return
        answers = [
            record
            for record in accepted
            if record.name == pending.question_name
            and record.rtype in (pending.question_type, RRType.CNAME)
        ]
        self._finish(pending, answers, response.flags.rcode)

    def _accept_records(
        self, pending: _PendingQuery, response: DNSMessage
    ) -> Optional[list[ResourceRecord]]:
        """Apply bailiwick and DNSSEC checks; return cacheable records."""
        zone = self._zone_of(pending.question_name)
        in_bailiwick = [
            record for record in response.records()
            if record.rtype is not RRType.RRSIG and name_in_zone(record.name, zone)
        ]
        anchor = self._anchor_for(pending.question_name) if self.config.validate_dnssec else None
        if anchor is not None:
            rrsigs = [r for r in response.records() if r.rtype is RRType.RRSIG]
            answer_rrset = [
                r for r in response.answers
                if r.name == pending.question_name and r.rtype is pending.question_type
            ]
            if answer_rrset and not validate_rrset(anchor, answer_rrset, rrsigs):
                self.stats.validation_failures += 1
                return None
        if self.config.minimum_ttl > 0:
            in_bailiwick = [
                r.with_ttl(max(r.ttl, self.config.minimum_ttl)) for r in in_bailiwick
            ]
        self.cache.store(in_bailiwick, self.simulator.now)
        return in_bailiwick

    def _zone_of(self, name: str) -> str:
        name = normalize_name(name)
        for zone in [name] + parent_zones(name):
            if zone in self.zone_map:
                return zone
        return name

    def _finish(
        self,
        pending: _PendingQuery,
        answers: list[ResourceRecord],
        rcode: ResponseCode,
    ) -> None:
        if pending.timeout_event is not None:
            pending.timeout_event.cancel()
        if pending in self._pending:
            self._pending.remove(pending)
        pending.socket.close()
        if rcode is ResponseCode.SERVFAIL:
            self.stats.servfail_sent += 1
        self._send_response(
            pending.client_query, answers, pending.client_ip, pending.client_port, rcode
        )

    # ------------------------------------------------------------ inspection
    def cached_addresses(self, name: str, rtype: RRType = RRType.A) -> list[str]:
        """Addresses currently cached for ``name`` (ground-truth inspection)."""
        records = self.cache.lookup(name, rtype, self.simulator.now)
        if not records:
            return []
        return [str(record.data) for record in records if record.rtype is rtype]

    def is_poisoned(self, name: str, attacker_addresses: set[str]) -> bool:
        """True when any cached address for ``name`` is attacker controlled."""
        return any(addr in attacker_addresses for addr in self.cached_addresses(name))
