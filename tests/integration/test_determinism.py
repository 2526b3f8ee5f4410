"""Bit-for-bit determinism of a fixed-seed Table II scenario.

The golden values below were captured by running the *seed* implementation
(git fc48653, before the netsim fast-path rework) with pool_size=48, seed=5,
ntpd client, P1 scenario.  The fast path must reproduce them exactly — same
success flag, same attack duration, same clock shift to the last float bit,
same event and packet counts — proving the performance rework changed no
simulation semantics.

The engine's ``table2_runtime_attack`` scenario runs each cell as a fleet
of one (:func:`repro.population.fleet.run_fleet`);
:class:`TestFleetOfOne` holds it equal to the direct
``RunTimeAttack.run()`` path below on all six Table II cells.
"""

from __future__ import annotations

import pytest

from repro.core.run_time import RunTimeAttack, RunTimeScenario
from repro.experiments import ExperimentRunner, RunSpec, get_scenario
from repro.ntp.clients import ChronyClient, NtpdClient, SystemdTimesyncdClient
from repro.testbed import TestbedConfig, build_testbed

#: Captured from the seed implementation; do not "refresh" these on failure —
#: a mismatch means the simulator's behaviour changed.
GOLDEN = {
    "success": True,
    "minutes": 15.5,
    "shift": -500.00999995431766,
    "events_processed": 48106,
    "packets_transmitted": 24730,
}


#: Table II row label -> client model, as the engine's scenario maps it.
TABLE2_CLIENTS = {
    "ntpd": NtpdClient,
    "chrony": ChronyClient,
    "openntpd*": SystemdTimesyncdClient,
}


def run_fixed_seed_scenario(
    client: str = "ntpd", attack: str = "P1", seed: int = 5, strict: bool = False
) -> dict:
    """One Table II cell on the direct single-victim path: a testbed, one
    started victim, a 1500 s warm-up, then ``RunTimeAttack.run()``."""
    testbed = build_testbed(TestbedConfig(pool_size=48, seed=seed))
    testbed.simulator.strict = strict
    victim = testbed.add_client(TABLE2_CLIENTS[client])
    victim.start()
    testbed.run_for(1500)
    attack_run = RunTimeAttack(
        testbed.attacker,
        testbed.simulator,
        testbed.resolver,
        victim,
        scenario=RunTimeScenario(attack),
        known_server_list=testbed.pool.addresses,
        max_duration=3600.0 * 3,
    )
    result = attack_run.run()
    return {
        "success": result.success,
        "minutes": result.attack_duration_minutes,
        "shift": result.clock_shift_achieved,
        "events_processed": testbed.simulator.events_processed,
        "packets_transmitted": testbed.network.packets_transmitted,
        "final_time": testbed.simulator.now,
    }


class TestFixedSeedDeterminism:
    def test_table2_scenario_matches_seed_implementation_exactly(self):
        observed = run_fixed_seed_scenario()
        for key, expected in GOLDEN.items():
            assert observed[key] == expected, (key, observed[key], expected)

    def test_table2_scenario_matches_golden_under_strict_mode(self):
        """The invariant-guarded loop changes no result: every ``run_for``
        also checks heap monotonicity, burst atomicity and the event
        accounting, and the golden values still come out bit-identical."""
        observed = run_fixed_seed_scenario(strict=True)
        for key, expected in GOLDEN.items():
            assert observed[key] == expected, (key, observed[key], expected)

    def test_experiment_engine_reproduces_direct_run(self):
        """The engine's scenario wrapper must not perturb a single bit."""
        outcome = ExperimentRunner(max_workers=1).run(
            [RunSpec.make("table2_runtime_attack", client="ntpd", attack="P1", seed=5)]
        )[0]
        assert outcome.ok, outcome.error
        for key in GOLDEN:
            assert outcome.result[key] == GOLDEN[key], key

    def test_two_runs_identical(self):
        assert run_fixed_seed_scenario() == run_fixed_seed_scenario()


class TestFleetOfOne:
    """The engine's ``table2_runtime_attack`` runs a fleet of one; every
    Table II cell must equal the direct ``RunTimeAttack.run()`` path field
    for field."""

    @pytest.mark.parametrize("attack", ["P1", "P2"])
    @pytest.mark.parametrize("client", list(TABLE2_CLIENTS))
    def test_cell_equals_direct_run(self, client, attack):
        direct = run_fixed_seed_scenario(client, attack, seed=5)
        cell = get_scenario("table2_runtime_attack")(client=client, attack=attack, seed=5)
        assert cell["label"] == client
        assert cell["scenario"] == attack
        assert cell["seed"] == 5
        for key in GOLDEN:
            assert cell[key] == direct[key], (key, cell[key], direct[key])
