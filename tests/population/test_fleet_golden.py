"""The degenerate fleet reproduces the single-victim golden run bit-for-bit.

A zero-noise, zero-churn, single-``ntpd`` spec with the Table II defaults
must issue exactly the same simulator/RNG call sequence as the
``table2_runtime_attack`` scenario — same events, same packets, same
achieved shift to the last bit.  This is the contract that makes the
population engine an *extension* of the validated single-victim path
rather than a parallel implementation that can silently drift.
"""

from __future__ import annotations

import pytest

import repro.population.fleet
from repro.experiments.scenarios import get_scenario
from repro.population.chaos import run_chaos_checkpoint, smoke_plan
from repro.population.fleet import run_fleet
from repro.population.landscape import smoke_spec
from repro.population.spec import PopulationSpec

#: The pinned golden numbers for (ntpd, P1, seed 5, pool 48, warmup 1500 s)
#: — the same cell every benchmark and the determinism suite pin.
GOLDEN = {
    "success": True,
    "minutes": 15.5,
    "shift": -500.00999995431766,
    "events_processed": 48106,
    "packets_transmitted": 24730,
}

DEGENERATE = PopulationSpec(size=1, client_mix={"ntpd": 1.0})


class TestGoldenBitIdentity:
    def test_degenerate_fleet_matches_golden_constants(self):
        document = run_fleet(DEGENERATE, seed=5)
        assert document["size"] == 1
        assert document["successes"] == 1
        client = document["clients"][0]
        assert client["success"] is GOLDEN["success"]
        assert client["minutes"] == GOLDEN["minutes"]
        assert client["shift"] == GOLDEN["shift"]
        assert document["events_processed"] == GOLDEN["events_processed"]
        assert document["packets_transmitted"] == GOLDEN["packets_transmitted"]

    def test_degenerate_fleet_matches_live_scenario(self):
        # Not just the pinned constants: the fleet must track whatever the
        # single-victim scenario computes today, field for field.
        scenario = get_scenario("table2_runtime_attack")
        single = scenario(client="ntpd", attack="P1", seed=5)
        document = run_fleet(DEGENERATE, seed=5)
        client = document["clients"][0]
        assert client["success"] == single["success"]
        assert client["minutes"] == single["minutes"]
        assert client["shift"] == single["shift"]
        assert document["events_processed"] == single["events_processed"]
        assert document["packets_transmitted"] == single["packets_transmitted"]


def _strict_testbeds(monkeypatch) -> list:
    """Make every fleet testbed built from here on run a strict simulator."""
    build = repro.population.fleet.build_testbed
    built = []

    def build_strict(*args, **kwargs):
        testbed = build(*args, **kwargs)
        testbed.simulator.strict = True
        built.append(testbed)
        return testbed

    monkeypatch.setattr(repro.population.fleet, "build_testbed", build_strict)
    return built


class TestStrictModeBitIdentity:
    """The realistic fleet paths under the simulator's invariant guards.

    Strict runs take the guarded loop (heap monotonicity per pop, burst
    atomicity, full event accounting on every loop exit); the documents
    must equal the unguarded ones field for field.
    """

    def test_degenerate_fleet_identical_under_strict_mode(self, monkeypatch):
        plain = run_fleet(DEGENERATE, seed=5)
        built = _strict_testbeds(monkeypatch)
        strict = run_fleet(DEGENERATE, seed=5)
        assert len(built) == 1 and built[0].simulator.strict
        assert strict == plain
        assert strict["events_processed"] == GOLDEN["events_processed"]

    def test_chaos_smoke_checkpoint_identical_under_strict_mode(self, monkeypatch):
        plain = run_chaos_checkpoint(smoke_spec(), smoke_plan(), seed=0)
        built = _strict_testbeds(monkeypatch)
        strict = run_chaos_checkpoint(smoke_spec(), smoke_plan(), seed=0)
        assert len(built) == 1 and built[0].simulator.strict
        assert strict == plain
