"""Tests for the boot-time attack orchestration (section IV-A)."""

import pytest

from repro.core.boot_time import BootTimeAttack
from repro.ntp.clients import NtpdateClient, OpenNTPDClient, SystemdTimesyncdClient
from repro.ntp.clients.base import NTPClientConfig
from repro.testbed import NAMESERVER_IP


def sntp_single_domain_config() -> NTPClientConfig:
    return SystemdTimesyncdClient.default_config()


def make_attack(testbed, **kwargs) -> BootTimeAttack:
    return BootTimeAttack(
        attacker=testbed.attacker,
        simulator=testbed.simulator,
        resolver=testbed.resolver,
        nameserver_ip=NAMESERVER_IP,
        **kwargs,
    )


class TestBootTimeAttack:
    def test_full_chain_shifts_a_booting_sntp_client(self, predictable_testbed):
        attack = make_attack(predictable_testbed)
        attack.launch_poisoning()
        predictable_testbed.run_for(10)
        victim = predictable_testbed.add_client(SystemdTimesyncdClient)
        result = attack.evaluate(victim, observation_period=400)
        assert result.poisoned
        assert result.client_used_attacker_server
        assert result.success
        assert result.clock_shift_achieved == pytest.approx(-500.0, abs=5.0)

    def test_ntpdate_invocation_is_attackable(self, predictable_testbed):
        attack = make_attack(predictable_testbed)
        attack.launch_poisoning()
        predictable_testbed.run_for(10)
        victim = predictable_testbed.add_client(NtpdateClient)
        result = attack.evaluate(victim, observation_period=120)
        assert result.success

    def test_openntpd_with_constraint_resists_boot_attack(self, predictable_testbed):
        attack = make_attack(predictable_testbed)
        attack.launch_poisoning()
        predictable_testbed.run_for(10)
        victim = predictable_testbed.add_client(OpenNTPDClient)
        victim.tls_constraint = True
        result = attack.evaluate(victim, observation_period=600)
        assert result.client_used_attacker_server  # it still talks to the attacker...
        assert not result.success  # ...but refuses the shifted time

    def test_unpoisoned_boot_is_clean(self, predictable_testbed):
        attack = make_attack(predictable_testbed)
        # No poisoning launched: the client must synchronise honestly.
        victim = predictable_testbed.add_client(SystemdTimesyncdClient)
        result = attack.evaluate(victim, observation_period=300)
        assert not result.client_used_attacker_server
        assert not result.success
        assert abs(result.clock_shift_achieved) < 1.0

    def test_result_records_time_to_shift(self, predictable_testbed):
        attack = make_attack(predictable_testbed)
        attack.launch_poisoning()
        predictable_testbed.run_for(10)
        victim = predictable_testbed.add_client(SystemdTimesyncdClient)
        result = attack.evaluate(victim, observation_period=400)
        assert result.time_to_shift is not None
        assert result.time_to_shift < 300
