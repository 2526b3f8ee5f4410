"""Tests for association removal via rate-limit abuse (section IV-B2)."""

from repro.core.rate_limit_abuse import AssociationRemover
from repro.ntp.clients.base import NTPClientConfig
from repro.ntp.clients.ntpd import NtpdClient


def fast_ntpd_config() -> NTPClientConfig:
    config = NtpdClient.default_config()
    config.pool_domains = ["pool.ntp.org"]
    config.desired_associations = 4
    config.min_associations = 3
    config.unreachable_after = 4
    config.poll_interval = 32.0
    return config


class TestCampaignMechanics:
    def test_spoofed_queries_sent_at_configured_interval(self, small_testbed):
        remover = AssociationRemover(
            small_testbed.attacker, small_testbed.simulator, victim_ip="192.0.2.150", query_interval=2.0
        )
        target = small_testbed.pool.addresses[0]
        remover.target(target)
        small_testbed.run_for(60)
        campaign = remover.campaigns[target]
        assert 25 <= campaign.queries_sent <= 35
        remover.stop(target)
        sent = campaign.queries_sent
        small_testbed.run_for(60)
        assert campaign.queries_sent == sent

    def test_target_is_idempotent(self, small_testbed):
        remover = AssociationRemover(small_testbed.attacker, small_testbed.simulator, "192.0.2.150")
        target = small_testbed.pool.addresses[0]
        first = remover.target(target)
        second = remover.target(target)
        assert first is second
        assert remover.stats.campaigns_started == 1

    def test_target_many_and_active_targets(self, small_testbed):
        remover = AssociationRemover(small_testbed.attacker, small_testbed.simulator, "192.0.2.150")
        targets = small_testbed.pool.addresses[:5]
        remover.target_many(targets)
        assert set(remover.active_targets()) == set(targets)
        remover.stop()
        assert remover.active_targets() == []

    def test_server_rate_limits_the_victim_not_the_attacker(self, small_testbed):
        victim_ip = "192.0.2.150"
        target = small_testbed.pool.addresses[0]
        remover = AssociationRemover(small_testbed.attacker, small_testbed.simulator, victim_ip)
        remover.target(target)
        small_testbed.run_for(120)
        server = small_testbed.pool.servers[target]
        assert server.is_rate_limiting(victim_ip)
        assert not server.is_rate_limiting(small_testbed.attacker.query_host.ip)


class TestBatchedRounds:
    """Cohort rounds: each interval, one batched spray for every member."""

    def test_batched_round_stops_when_all_campaigns_stop(self, small_testbed):
        remover = AssociationRemover(
            small_testbed.attacker,
            small_testbed.simulator,
            "192.0.2.150",
            query_interval=2.0,
        )
        remover.target_many(small_testbed.pool.addresses[:3])
        small_testbed.run_for(20)
        remover.stop()
        sent = remover.stats.spoofed_queries_sent
        small_testbed.run_for(60)
        assert remover.stats.spoofed_queries_sent == sent

    def test_batched_target_restarts_round_loop(self, small_testbed):
        remover = AssociationRemover(
            small_testbed.attacker,
            small_testbed.simulator,
            "192.0.2.150",
            query_interval=2.0,
        )
        first = small_testbed.pool.addresses[0]
        remover.target(first)
        small_testbed.run_for(10)
        remover.stop()
        small_testbed.run_for(10)  # round loop drains
        second = small_testbed.pool.addresses[1]
        remover.target(second)
        small_testbed.run_for(20)
        assert remover.campaigns[second].queries_sent >= 5

    def test_negative_interval_rejected(self, small_testbed):
        import pytest

        with pytest.raises(ValueError):
            AssociationRemover(
                small_testbed.attacker,
                small_testbed.simulator,
                "192.0.2.150",
                query_interval=-1.0,
            )


class TestEffectOnClients:
    def test_victim_associations_become_unreachable(self, small_testbed):
        client = small_testbed.add_client(NtpdClient, config=fast_ntpd_config())
        client.start()
        small_testbed.run_for(200)
        assert len(client.usable_server_ips()) == 4
        remover = AssociationRemover(
            small_testbed.attacker, small_testbed.simulator, victim_ip=client.host.ip
        )
        remover.target_many(client.usable_server_ips())
        small_testbed.run_for(900)
        assert client.stats.associations_removed >= 3
        assert client.stats.runtime_dns_lookups >= 1

    def test_non_rate_limiting_servers_resist_removal(self):
        """Ablation: if the victim's servers do not rate limit, spoofed
        queries change nothing (the probabilistic limit behind Table III)."""
        from repro.testbed import TestbedConfig, build_testbed

        testbed = build_testbed(
            TestbedConfig(pool_size=24, seed=33, pool_rate_limit_fraction=0.0)
        )
        client = testbed.add_client(NtpdClient, config=fast_ntpd_config())
        client.start()
        testbed.run_for(200)
        remover = AssociationRemover(testbed.attacker, testbed.simulator, client.host.ip)
        remover.target_many(client.usable_server_ips())
        testbed.run_for(900)
        assert client.stats.associations_removed == 0
        assert client.stats.runtime_dns_lookups == 0
        assert abs(client.clock_error()) < 1.0
