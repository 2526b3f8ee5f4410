"""Tests for the shared NTP client machinery (boot, polling, discipline)."""

import pytest

from repro.ntp.clients.base import BaseNTPClient, NTPClientConfig
from repro.testbed import TestbedConfig, build_testbed


def single_domain_config(**overrides) -> NTPClientConfig:
    defaults = dict(
        pool_domains=["pool.ntp.org"],
        desired_associations=4,
        min_associations=2,
        max_associations=8,
        poll_interval=64.0,
        unreachable_after=4,
        step_delay=120.0,
        min_step_samples=2,
    )
    defaults.update(overrides)
    return NTPClientConfig(**defaults)


class TestBootBehaviour:
    def test_boot_resolves_pool_domain_and_creates_associations(self, small_testbed):
        client = small_testbed.add_client(BaseNTPClient, config=single_domain_config())
        client.start()
        small_testbed.run_for(10)
        assert client.stats.boot_dns_lookups == 1
        assert len(client.usable_server_ips()) == 4
        assert set(client.usable_server_ips()) <= set(small_testbed.pool.addresses)

    def test_boot_corrects_initial_clock_error(self, small_testbed):
        client = small_testbed.add_client(
            BaseNTPClient, config=single_domain_config(), initial_clock_offset=42.0
        )
        client.start()
        small_testbed.run_for(400)
        assert abs(client.clock_error()) < 1.0
        assert client.stats.steps_applied >= 1

    def test_client_tracks_small_offsets_by_slewing(self, small_testbed):
        client = small_testbed.add_client(
            BaseNTPClient, config=single_domain_config(), initial_clock_offset=0.05
        )
        client.start()
        small_testbed.run_for(900)
        assert abs(client.clock_error()) < 0.05
        assert client.stats.steps_applied == 0

    def test_start_is_idempotent(self, small_testbed):
        client = small_testbed.add_client(BaseNTPClient, config=single_domain_config())
        client.start()
        client.start()
        small_testbed.run_for(5)
        assert client.stats.boot_dns_lookups == 1

    def test_stop_halts_polling(self, small_testbed):
        client = small_testbed.add_client(BaseNTPClient, config=single_domain_config())
        client.start()
        small_testbed.run_for(100)
        polls_before = client.stats.polls_sent
        client.stop()
        small_testbed.run_for(500)
        assert client.stats.polls_sent == polls_before


class TestPollingAndSelection:
    def test_polls_every_usable_association(self, small_testbed):
        client = small_testbed.add_client(BaseNTPClient, config=single_domain_config())
        client.start()
        small_testbed.run_for(200)
        assert client.stats.polls_sent >= 2 * len(client.usable_server_ips())
        for association in client.associations.values():
            assert association.responses_received > 0

    def test_sntp_polls_single_server(self, small_testbed):
        client = small_testbed.add_client(
            BaseNTPClient, config=single_domain_config(sntp=True, desired_associations=1)
        )
        client.start()
        small_testbed.run_for(200)
        polled = [a for a in client.associations.values() if a.polls_sent > 0]
        assert len(polled) == 1

    def test_median_selection_resists_single_bad_server(self, small_testbed):
        """A single attacker-controlled server cannot shift a multi-server client."""
        client = small_testbed.add_client(
            BaseNTPClient, config=single_domain_config(step_delay=60.0)
        )
        client.start()
        small_testbed.run_for(120)
        # Replace one association with a malicious server.
        evil_ip = small_testbed.attacker.ntp_server_addresses()[0]
        victim_assoc = list(client.associations)[0]
        client.associations[evil_ip] = client.associations.pop(victim_assoc)
        client.associations[evil_ip].server_ip = evil_ip
        small_testbed.run_for(1200)
        assert abs(client.clock_error()) < 1.0

    def test_unanswered_polls_mark_unreachable_and_requery(self, small_testbed):
        config = single_domain_config(unreachable_after=3, min_associations=4)
        client = small_testbed.add_client(BaseNTPClient, config=config)
        client.start()
        small_testbed.run_for(100)
        # Silence every pool server the client uses.
        for ip in client.usable_server_ips():
            small_testbed.pool.servers[ip].socket.close()
        small_testbed.run_for(600)
        assert client.stats.associations_removed > 0
        assert client.stats.runtime_dns_lookups > 0

    def test_unsolicited_response_ignored(self, small_testbed):
        """Responses that do not echo an outstanding query are discarded."""
        from repro.ntp.packet import NTPPacket

        client = small_testbed.add_client(BaseNTPClient, config=single_domain_config())
        client.start()
        small_testbed.run_for(100)
        target = list(client.associations.values())[0]
        before = target.responses_received
        forged = NTPPacket.server_response(NTPPacket.client_query(1.0), server_time=99999.0)
        client._on_packet(forged.encode(), target.server_ip, 123)
        assert target.responses_received == before


class TestPanicThreshold:
    def test_panic_threshold_blocks_huge_runtime_steps(self, small_testbed):
        config = single_domain_config(panic_threshold=1000.0, step_delay=60.0, min_step_samples=1)
        client = small_testbed.add_client(BaseNTPClient, config=config)
        client.start()
        small_testbed.run_for(300)
        client._pending.clear()
        # Fabricate a selected offset beyond the panic threshold at run time.
        for association in client.associations.values():
            association.offset_samples.append(-5000.0)
            association.last_offset = -5000.0
        client._discipline()
        small_testbed.run_for(300)
        assert client.stats.panics >= 1
        assert abs(client.clock_error()) < 1.0

    def test_boot_time_step_allowed_despite_panic_threshold(self, small_testbed):
        """Clients step arbitrarily at boot (the boot-time attack's enabler)."""
        config = single_domain_config(panic_threshold=1000.0)
        client = small_testbed.add_client(
            BaseNTPClient, config=config, initial_clock_offset=5000.0
        )
        client.start()
        small_testbed.run_for(400)
        assert abs(client.clock_error()) < 1.0


class TestDescribeAndRegistry:
    def test_client_registry_contains_all_table1_clients(self):
        from repro.ntp.clients import CLIENT_REGISTRY

        assert set(CLIENT_REGISTRY) == {
            "ntpd",
            "openntpd",
            "chrony",
            "ntpdate",
            "android",
            "ntpclient",
            "systemd-timesyncd",
        }
