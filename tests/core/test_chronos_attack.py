"""Tests for the Chronos attack and its analytic bounds (section VI-C)."""

import pytest

from repro.core.chronos_attack import (
    ChronosAttack,
    PAPER_MAX_ADDRESSES_PER_RESPONSE,
    attack_windows,
    max_addresses_in_response,
    max_honest_lookups_tolerated,
)
from repro.ntp.chronos.client import ChronosConfig
from repro.ntp.chronos.pool_generation import PoolGenerationConfig


class TestAnalyticBounds:
    def test_89_addresses_fit_in_one_response(self):
        assert max_addresses_in_response() == PAPER_MAX_ADDRESSES_PER_RESPONSE == 89

    def test_max_honest_lookups_is_11(self):
        """The paper's headline bound: poisoning must land before the 12th lookup."""
        assert max_honest_lookups_tolerated(89) == 11

    def test_attacker_has_12_windows_in_24_hours(self):
        assert attack_windows(89) == 12

    def test_addresses_needed_grows_with_honest_lookups(self):
        # Dominating N honest lookups (4N addresses) takes 2 * 4N addresses.
        assert max_honest_lookups_tolerated(0) == 0
        assert max_honest_lookups_tolerated(88) == 11
        assert max_honest_lookups_tolerated(87) == 10
        # Twelve lookups need 96 > 89 addresses: the attack is impossible.
        assert max_honest_lookups_tolerated(96) == 12
        assert max_honest_lookups_tolerated(max_addresses_in_response()) < 12

    def test_fewer_injected_addresses_shrink_the_window(self):
        assert max_honest_lookups_tolerated(40) == 5
        assert max_honest_lookups_tolerated(8) == 1

    def test_smaller_mtu_fits_fewer_addresses(self):
        assert max_addresses_in_response(mtu=576) < max_addresses_in_response(mtu=1500)


def fast_chronos_config() -> ChronosConfig:
    return ChronosConfig(
        pool_generation=PoolGenerationConfig(lookup_interval=300.0, total_lookups=24),
        servers_per_round=9,
        poll_interval=120.0,
    )


def chronos_testbed():
    """A testbed with a pool large enough that 24 honest lookups can gather
    the ~96 distinct servers the paper's analysis assumes."""
    from repro.testbed import TestbedConfig, build_testbed

    return build_testbed(TestbedConfig(pool_size=160, seed=61))


def make_attack(testbed, victim) -> ChronosAttack:
    return ChronosAttack(
        attacker=testbed.attacker,
        simulator=testbed.simulator,
        resolver=testbed.resolver,
        victim=victim,
    )


class TestChronosAttackExecution:
    def test_poisoning_before_12th_lookup_shifts_chronos(self):
        testbed = chronos_testbed()
        victim = testbed.add_chronos_client(config=fast_chronos_config())
        attack = make_attack(testbed, victim)
        result = attack.run(poison_after_lookups=5, observe_rounds=4)
        assert result.attacker_controls_pool
        assert result.pool_generation_ended_early
        assert result.success
        assert result.clock_shift_achieved == pytest.approx(-500.0, abs=5.0)

    def test_late_poisoning_cannot_guarantee_control(self):
        """Landing after too many honest lookups leaves the attacker below
        the 2/3 bound, so Chronos' guarantee is no longer surely broken."""
        testbed = chronos_testbed()
        victim = testbed.add_chronos_client(config=fast_chronos_config())
        attack = make_attack(testbed, victim)
        result = attack.run(poison_after_lookups=20, observe_rounds=1)
        assert not result.attacker_controls_pool

    def test_small_injection_kept_below_one_third_is_filtered(self):
        """Chronos' own security property: an attacker below 1/3 of the pool
        cannot shift the clock at all (this is why stuffing the pool with the
        full 89-address response is essential to the attack)."""
        testbed = chronos_testbed()
        victim = testbed.add_chronos_client(config=fast_chronos_config())
        attack = make_attack(testbed, victim)
        attack.injected_addresses = 18
        result = attack.run(poison_after_lookups=16, observe_rounds=4)
        assert result.attacker_fraction < 1 / 3
        assert not result.success
        assert abs(result.clock_shift_achieved) < 1.0

    def test_injected_addresses_all_run_ntp_servers(self):
        testbed = chronos_testbed()
        victim = testbed.add_chronos_client(config=fast_chronos_config())
        attack = make_attack(testbed, victim)
        result = attack.run(poison_after_lookups=3, observe_rounds=2)
        assert result.injected_addresses >= 80
        assert len(testbed.attacker.ntp_servers) >= result.injected_addresses

    def test_attacker_fraction_formula(self):
        testbed = chronos_testbed()
        victim = testbed.add_chronos_client(config=fast_chronos_config())
        attack = make_attack(testbed, victim)
        result = attack.run(poison_after_lookups=4, observe_rounds=2)
        expected_fraction = result.attacker_addresses_in_pool / (
            result.attacker_addresses_in_pool + result.honest_addresses_in_pool
        )
        assert result.attacker_fraction == pytest.approx(expected_fraction)
