"""Tests for the caching recursive resolver (the attack's victim)."""

import numpy as np
import pytest

from repro.dns.dnssec import ZoneSigningKey, sign_zone
from repro.dns.message import DNSMessage, ResponseCode
from repro.dns.nameserver import AuthoritativeNameserver, PoolNameserver
from repro.dns.records import RRType, a_record
from repro.dns.resolver import RecursiveResolver, ResolverConfig
from repro.dns.stub import StubResolver
from repro.dns.zone import Zone
from repro.netsim.addresses import address_range
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator


class Env:
    """A small DNS environment: pool nameserver + resolver + client stub."""

    def __init__(self, resolver_config=None, signed_zone=False):
        self.sim = Simulator(seed=4)
        self.net = Network(self.sim)
        ns_host = self.net.add_host("ns", "198.51.100.10")
        self.pool_addresses = address_range("203.0.113.1", 40)
        self.nameserver = PoolNameserver(
            ns_host, self.pool_addresses, rng=np.random.default_rng(2)
        )
        trust_anchors = {}
        if signed_zone:
            zone = Zone(origin="time.cloudflare.com")
            zone.add(a_record("time.cloudflare.com", "162.159.200.1"))
            key = ZoneSigningKey.generate(zone.origin)
            sign_zone(zone, key)
            signed_host = self.net.add_host("signed-ns", "198.51.100.20")
            self.signed_ns = AuthoritativeNameserver(
                signed_host, zones=[zone], signing_keys={zone.origin: key}
            )
            trust_anchors[zone.origin] = key
        resolver_host = self.net.add_host("resolver", "192.0.2.53")
        zone_map = {"pool.ntp.org": "198.51.100.10"}
        if signed_zone:
            zone_map["time.cloudflare.com"] = "198.51.100.20"
        self.resolver = RecursiveResolver(
            resolver_host,
            self.sim,
            zone_map=zone_map,
            config=resolver_config,
            trust_anchors=trust_anchors,
        )
        client_host = self.net.add_host("client", "192.0.2.10")
        self.stub = StubResolver(client_host, self.sim, "192.0.2.53")

    def resolve(self, name, rd=True, rtype=RRType.A):
        results = []
        self.stub.resolve(name, results.append, rtype=rtype, rd=rd)
        self.sim.run()
        return results[0]


class TestRecursiveResolution:
    def test_resolves_and_answers(self):
        env = Env()
        result = env.resolve("pool.ntp.org")
        assert result.ok
        assert len(result.addresses) == 4
        assert set(result.addresses) <= set(env.pool_addresses)

    def test_answer_cached_and_ttl_decrements(self):
        env = Env()
        first = env.resolve("pool.ntp.org")
        env.sim.run_for(50)
        second = env.resolve("pool.ntp.org")
        assert second.addresses == first.addresses  # from cache, not re-rotated
        assert max(second.ttls()) <= 150 - 50
        assert env.resolver.stats.cache_hits >= 1

    def test_cache_expires_after_ttl(self):
        env = Env()
        env.resolve("pool.ntp.org")
        env.sim.run_for(200)
        env.resolve("pool.ntp.org")
        assert env.resolver.stats.upstream_queries >= 2

    def test_servfail_for_unknown_zone(self):
        env = Env()
        result = env.resolve("unknown.test")
        assert not result.ok
        assert result.rcode is ResponseCode.SERVFAIL

    def test_source_port_randomisation(self):
        env = Env()
        ports = set()
        original_bind = env.resolver.host.bind

        def tracking_bind(port, on_datagram=None):
            socket = original_bind(port, on_datagram)
            if port == 0:
                ports.add(socket.port)
            return socket

        env.resolver.host.bind = tracking_bind
        env.resolve("pool.ntp.org")
        env.sim.run_for(200)
        env.resolve("0.pool.ntp.org")
        assert len(ports) == 2 and len(set(ports)) == 2

    def test_upstream_timeout_leads_to_servfail(self):
        env = Env()
        env.net.host("198.51.100.10").release_port(53)  # nameserver goes silent
        result = env.resolve("pool.ntp.org")
        assert result.timed_out or result.rcode is ResponseCode.SERVFAIL
        assert env.resolver.stats.upstream_timeouts >= 1


class TestChallengeResponseChecks:
    def test_response_with_wrong_txid_rejected(self):
        env = Env()
        # Intercept at the nameserver: make it lie about the TXID.
        original = env.nameserver.build_response

        def wrong_txid(query):
            response = original(query)
            response.txid = (response.txid + 1) & 0xFFFF
            return response

        env.nameserver.build_response = wrong_txid
        result = env.resolve("pool.ntp.org")
        assert not result.ok
        assert env.resolver.stats.rejected_mismatched_responses >= 1

    def test_out_of_bailiwick_records_not_cached(self):
        env = Env()
        original = env.nameserver.build_response

        def with_poison(query):
            response = original(query)
            response.additional.append(a_record("www.bank.example", "6.6.6.6", ttl=3600))
            return response

        env.nameserver.build_response = with_poison
        env.resolve("pool.ntp.org")
        assert env.resolver.cache.lookup("www.bank.example", RRType.A, env.sim.now) is None

    def test_in_bailiwick_records_cached(self):
        env = Env()
        env.resolve("pool.ntp.org")
        assert env.resolver.cached_addresses("pool.ntp.org")


class TestRDZeroHandling:
    def test_rd0_answered_from_cache_only(self):
        env = Env()
        miss = env.resolve("pool.ntp.org", rd=False)
        assert not miss.ok  # nothing cached, resolver must not recurse
        env.resolve("pool.ntp.org", rd=True)
        hit = env.resolve("pool.ntp.org", rd=False)
        assert hit.ok
        assert env.resolver.stats.rd_zero_queries == 2

    def test_rd0_does_not_trigger_upstream_query(self):
        env = Env()
        env.resolve("pool.ntp.org", rd=False)
        assert env.resolver.stats.upstream_queries == 0


class TestDNSSECValidation:
    def test_validating_resolver_accepts_signed_zone(self):
        env = Env(resolver_config=ResolverConfig(validate_dnssec=True), signed_zone=True)
        result = env.resolve("time.cloudflare.com")
        assert result.ok

    def test_validating_resolver_rejects_forged_signed_answer(self):
        env = Env(resolver_config=ResolverConfig(validate_dnssec=True), signed_zone=True)
        original = env.signed_ns.build_response

        def forge(query):
            response = original(query)
            for record in response.answers:
                if record.rtype is RRType.A:
                    record.data = "66.6.6.6"
            return response

        env.signed_ns.build_response = forge
        result = env.resolve("time.cloudflare.com")
        assert not result.ok
        assert env.resolver.stats.validation_failures == 1

    def test_unsigned_zone_not_protected_even_by_validating_resolver(self):
        """pool.ntp.org is unsigned, so validation cannot reject forgeries."""
        env = Env(resolver_config=ResolverConfig(validate_dnssec=True))
        original = env.nameserver.build_response

        def forge(query):
            response = original(query)
            for record in response.answers:
                if record.rtype is RRType.A:
                    record.data = "66.6.6.6"
            return response

        env.nameserver.build_response = forge
        result = env.resolve("pool.ntp.org")
        assert result.ok
        assert "66.6.6.6" in result.addresses


class TestInspectionHelpers:
    def test_is_poisoned(self):
        env = Env()
        env.resolve("pool.ntp.org")
        assert not env.resolver.is_poisoned("pool.ntp.org", {"66.6.6.1"})
        env.resolver.cache.store([a_record("pool.ntp.org", "66.6.6.1", ttl=300)], env.sim.now)
        assert env.resolver.is_poisoned("pool.ntp.org", {"66.6.6.1"})
