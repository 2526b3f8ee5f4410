"""Tests for upstream-server discovery through the refid leak (section IV-B2b)."""

from repro.core.server_discovery import discover_via_refid_leak
from repro.ntp.clients.ntpd import NtpdClient


class TestRefidLeak:
    def test_discovers_victim_upstream_servers(self, small_testbed):
        client = small_testbed.add_client(NtpdClient)
        client.start()
        small_testbed.run_for(200)
        observed = []
        stop = discover_via_refid_leak(
            small_testbed.attacker,
            small_testbed.simulator,
            victim_ip=client.host.ip,
            on_peer=observed.append,
            probe_interval=16.0,
        )
        small_testbed.run_for(120)
        stop()
        assert observed
        assert set(observed) <= set(client.usable_server_ips())

    def test_each_peer_reported_once(self, small_testbed):
        client = small_testbed.add_client(NtpdClient)
        client.start()
        small_testbed.run_for(200)
        observed = []
        stop = discover_via_refid_leak(
            small_testbed.attacker,
            small_testbed.simulator,
            client.host.ip,
            observed.append,
            probe_interval=8.0,
        )
        small_testbed.run_for(300)
        stop()
        assert len(observed) == len(set(observed))

    def test_silent_victim_reveals_nothing(self, small_testbed):
        """Clients that do not act as servers (chrony, SNTP) leak nothing."""
        config = NtpdClient.default_config()
        config.act_as_server = False
        client = small_testbed.add_client(NtpdClient, config=config)
        client.start()
        small_testbed.run_for(200)
        observed = []
        stop = discover_via_refid_leak(
            small_testbed.attacker, small_testbed.simulator, client.host.ip, observed.append
        )
        small_testbed.run_for(200)
        stop()
        assert observed == []
