"""Tests for the DNS defragmentation-cache poisoning attack (section III)."""

import pytest

from repro.core.fragment_attack import DNSFragmentPoisoner, PoisoningPlan
from repro.dns.message import DNSMessage
from repro.dns.records import RRType
from repro.netsim.host import OSProfile
from repro.testbed import NAMESERVER_IP, TestbedConfig, build_testbed


def make_poisoner(testbed, **plan_overrides):
    plan_defaults = dict(
        resolver_ip=testbed.resolver.ip,
        nameserver_ip=NAMESERVER_IP,
        qname="pool.ntp.org",
        malicious_addresses=testbed.attacker.redirect_addresses(4),
        target_mtu=68,
        max_duration=400.0,
    )
    plan_defaults.update(plan_overrides)
    plan = PoisoningPlan(**plan_defaults)
    outcomes = []
    poisoner = DNSFragmentPoisoner(
        testbed.attacker,
        testbed.simulator,
        plan,
        success_check=lambda: testbed.resolver_poisoned("pool.ntp.org"),
        on_finished=outcomes.append,
    )
    return poisoner, outcomes


class TestCraftingSteps:
    def test_learns_response_template(self, predictable_testbed):
        poisoner, _ = make_poisoner(predictable_testbed)
        poisoner.start()
        predictable_testbed.run_for(10)
        assert poisoner.template_payload is not None
        decoded = DNSMessage.decode(poisoner.template_payload)
        assert decoded.question.name == "pool.ntp.org"

    def test_forces_fragmentation_at_nameserver(self, predictable_testbed):
        poisoner, _ = make_poisoner(predictable_testbed)
        poisoner.start()
        predictable_testbed.run_for(10)
        ns_host = predictable_testbed.network.host(NAMESERVER_IP)
        assert ns_host.path_mtu(predictable_testbed.resolver.ip) == 68
        # Responses to the attacker itself are not fragmented.
        assert ns_host.path_mtu(predictable_testbed.attacker.query_host.ip) == 1500

    def test_spoofed_payload_rewrites_addresses_and_matches_checksum(self, predictable_testbed):
        from repro.netsim.checksum import ones_complement_sum
        from repro.netsim.udp import UDP_HEADER_LEN

        poisoner, _ = make_poisoner(predictable_testbed)
        poisoner.start()
        predictable_testbed.run_for(10)
        crafted = poisoner.build_spoofed_payload()
        assert crafted is not None
        payload, offset_units = crafted
        boundary = poisoner.first_fragment_payload_length()
        assert offset_units == boundary // 8
        original_f2 = (b"\x00" * UDP_HEADER_LEN + poisoner.template_payload)[boundary:]
        assert ones_complement_sum(payload) == ones_complement_sum(original_f2)
        assert payload != original_f2

    def test_no_payload_when_response_does_not_fragment(self, predictable_testbed):
        poisoner, _ = make_poisoner(predictable_testbed, target_mtu=1400)
        poisoner.start()
        predictable_testbed.run_for(10)
        assert poisoner.build_spoofed_payload() is None

    def test_planted_fragments_enter_resolver_defrag_cache(self, predictable_testbed):
        poisoner, _ = make_poisoner(predictable_testbed)
        poisoner.start()
        predictable_testbed.run_for(20)
        resolver_host = predictable_testbed.network.host(predictable_testbed.resolver.ip)
        planted = resolver_host.defrag.planted_fragments(
            NAMESERVER_IP, predictable_testbed.resolver.ip
        )
        assert len(planted) > 0


class TestEndToEndPoisoning:
    def trigger_query(self, testbed, qname="pool.ntp.org"):
        """Have a bystander client behind the resolver ask for the pool name."""
        from repro.dns.stub import StubResolver

        host = testbed.network.add_host(f"bystander-{qname}", "192.0.2.77")
        results = []
        StubResolver(host, testbed.simulator, testbed.resolver.ip).resolve(
            qname, results.append
        )
        return results

    def test_poisoning_succeeds_with_predictable_tail(self, predictable_testbed):
        poisoner, outcomes = make_poisoner(predictable_testbed)
        poisoner.start()
        predictable_testbed.run_for(10)
        results = self.trigger_query(predictable_testbed)
        predictable_testbed.run_for(40)
        assert predictable_testbed.resolver_poisoned("pool.ntp.org")
        assert outcomes and outcomes[0].success
        attacker_addresses = predictable_testbed.attacker.controlled_addresses
        assert any(address in attacker_addresses for address in results[0].addresses)

    def test_bystander_receives_attacker_addresses(self, predictable_testbed):
        poisoner, _ = make_poisoner(predictable_testbed)
        poisoner.start()
        predictable_testbed.run_for(10)
        self.trigger_query(predictable_testbed)
        predictable_testbed.run_for(5)
        cached = predictable_testbed.resolver.cached_addresses("pool.ntp.org")
        assert set(cached) <= predictable_testbed.attacker.controlled_addresses

    def test_attack_volume_is_low(self, predictable_testbed):
        """Section IV-A: a handful of spoofed fragments per refresh round."""
        poisoner, _ = make_poisoner(predictable_testbed, ipid_candidates=8)
        poisoner.start()
        predictable_testbed.run_for(100)
        assert poisoner.refreshes <= 5
        assert poisoner.fragments_sent <= 8 * poisoner.refreshes

    def test_poisoning_fails_without_challenge_values_if_not_fragmented(self, predictable_testbed):
        """With a large MTU nothing fragments, so the off-path attacker has
        no way in (it never learns port/TXID)."""
        poisoner, outcomes = make_poisoner(predictable_testbed, target_mtu=1400, max_duration=120.0)
        poisoner.start()
        predictable_testbed.run_for(10)
        self.trigger_query(predictable_testbed)
        predictable_testbed.run_for(120)
        assert not predictable_testbed.resolver_poisoned("pool.ntp.org")

    def test_random_rotation_defeats_checksum_fix(self):
        """Ablation: with an unpredictable response tail the planted fragment
        fails the UDP checksum and the resolver stays clean."""
        testbed = build_testbed(TestbedConfig(pool_size=24, seed=21, pool_rotation="random"))
        poisoner, _ = make_poisoner(testbed)
        poisoner.start()
        testbed.run_for(10)
        self.trigger_query(testbed)
        testbed.run_for(10)
        resolver_host = testbed.network.host(testbed.resolver.ip)
        assert not testbed.resolver_poisoned("pool.ntp.org")
        assert resolver_host.stats.udp_checksum_failures >= 1

    def test_fragment_filtering_resolver_immune(self):
        """Resolvers that drop fragments (about 2/3 of the population) are
        not poisonable by this technique."""
        testbed = build_testbed(
            TestbedConfig(pool_size=24, seed=22, pool_rotation="fixed", resolver_drops_fragments=True)
        )
        poisoner, _ = make_poisoner(testbed)
        poisoner.start()
        testbed.run_for(10)
        self.trigger_query(testbed)
        testbed.run_for(60)
        assert not testbed.resolver_poisoned("pool.ntp.org")

    def test_poisoned_ttl_override(self, predictable_testbed):
        """With a query name long enough that every answer record (including
        its TTL field) lands in the second fragment, the attacker can also
        extend the TTL of the poisoned records — the knob the Chronos attack
        turns.  (For the short ``pool.ntp.org`` name the first record's TTL
        stays in the first fragment and caps the cached rrset TTL at 150 s.)
        """
        qname = "2.android.pool.ntp.org"
        poisoner, _ = make_poisoner(predictable_testbed, qname=qname, poisoned_ttl=90000)
        poisoner.start()
        predictable_testbed.run_for(10)
        self.trigger_query(predictable_testbed, qname=qname)
        predictable_testbed.run_for(5)
        assert predictable_testbed.resolver_poisoned(qname)
        ttl = predictable_testbed.resolver.cache.remaining_ttl(
            qname, RRType.A, predictable_testbed.simulator.now
        )
        assert ttl is not None and ttl > 150
