"""Chaos-layer fleet properties: bit-identity and conservation.

The two acceptance properties of the chaos compiler:

* **inert ⇒ bit-identical** — a plan with zero effective components
  attaches nothing, schedules nothing, and the fleet run is equal to the
  same spec without chaos, down to the golden single-victim constants;
* **conservation** — per correlation group, every packet transmitted is
  either captured, fault-dropped, or was a fault duplicate:
  ``captured == transmitted − dropped + duplicated``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.netsim import Network, Simulator
from repro.netsim.faults import FaultStats
from repro.population.chaos import (
    CampaignHorizon,
    ChaosPhase,
    ChaosPlan,
    compile_chaos,
    run_chaos_checkpoint,
)
from repro.population.fleet import run_fleet
from repro.population.spec import FaultRegimeSpec, PopulationSpec

GOLDEN = {
    "shift": -500.00999995431766,
    "events_processed": 48106,
    "packets_transmitted": 24730,
}

DEGENERATE = PopulationSpec(size=1, client_mix={"ntpd": 1.0})


def small_spec() -> PopulationSpec:
    return PopulationSpec(
        size=4,
        client_mix={"ntpd": 1.0},
        pool_size=16,
        warmup_seconds=300.0,
        max_duration_hours=0.35,
    )


@lru_cache(maxsize=4)
def baseline_small_run() -> dict:
    return run_fleet(small_spec(), seed=3)


class TestInertBitIdentity:
    def test_empty_plan_reproduces_golden_run(self):
        document = run_chaos_checkpoint(DEGENERATE, ChaosPlan(), seed=5)
        assert document["successes"] == 1
        assert document["events_processed"] == GOLDEN["events_processed"]
        assert document["packets_transmitted"] == GOLDEN["packets_transmitted"]
        assert "clients" not in document  # detail_limit=0: constant payload

    def test_all_clean_plan_with_groups_is_bit_identical(self):
        # Groups assigned, phases declared, but every phase runs clean:
        # the compile collapses to zero schedules and the simulation must
        # match the chaos-free fleet event for event.
        plan = ChaosPlan(
            groups=(("east", 1.0), ("west", 1.0)),
            phases=(ChaosPhase("calm", 400.0), ChaosPhase("still", 400.0)),
            horizon=CampaignHorizon(duration=0.0),
        )
        assert compile_chaos(plan, 4, seed=3).is_inert
        document = run_chaos_checkpoint(small_spec(), plan, seed=3)
        baseline = baseline_small_run()
        assert document["events_processed"] == baseline["events_processed"]
        assert document["packets_transmitted"] == baseline["packets_transmitted"]
        assert document["successes"] == baseline["successes"]
        assert (
            document["aggregate"]["shift_histogram"]
            == baseline["aggregate"]["shift_histogram"]
        )
        # The chaos surface is still reported: labels and (all-zero) faults.
        assert set(document["groups"]) <= {"east", "west"}
        assert all(v == 0 for v in document["fault_stats"].values())

    def test_faulted_plan_actually_fires(self):
        plan = ChaosPlan(
            groups=(("east", 1.0),),
            regimes=(FaultRegimeSpec("blackout", kind="partition"),),
            phases=(
                ChaosPhase("calm", 400.0),
                ChaosPhase("storm", 500.0, regimes=(("east", "blackout"),)),
            ),
            horizon=CampaignHorizon(duration=1600.0),
        )
        document = run_chaos_checkpoint(small_spec(), plan, seed=3, until=1600.0)
        assert document["fault_stats"]["dropped_partition"] > 0
        assert document["groups"]["east"]["clients"] == 4
        assert (
            document["groups"]["east"]["fault_stats"]["dropped_partition"]
            == document["fault_stats"]["dropped_partition"]
        )


class TestStaticRegimeUnderChaos:
    def test_composes_into_every_entry(self):
        """Every client's static jitter regime rides through the storm's
        partition and the heal after it.  The counters and the digest
        were recorded when the fleet still set the regime and the chaos
        schedule on each link in two separate steps."""
        spec = replace(small_spec(), fault_mix={"jittery": 1.0})
        plan = ChaosPlan(
            groups=(("east", 1.0),),
            regimes=(FaultRegimeSpec("blackout", kind="partition"),),
            phases=(
                ChaosPhase("calm", 400.0),
                ChaosPhase("storm", 500.0, regimes=(("east", "blackout"),)),
            ),
            horizon=CampaignHorizon(duration=1600.0),
        )
        document = run_chaos_checkpoint(spec, plan, seed=3, until=1600.0)
        assert document["fault_stats"]["dropped_partition"] == 16198
        assert document["fault_stats"]["reordered"] == 2666
        text = json.dumps(document, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        assert digest == "489b4e36f1ba1912"


@pytest.mark.chaos
class TestGroupConservation:
    """captured == transmitted − fault_dropped + duplicated, per group."""

    def test_conservation_across_scheduled_regimes(self):
        plan = ChaosPlan(
            groups=(("east", 1.0), ("west", 1.0)),
            regimes=(
                FaultRegimeSpec("blackout", kind="partition"),
                FaultRegimeSpec("echo", kind="duplication", probability=1.0),
            ),
            phases=(
                ChaosPhase("calm", 10.0),
                ChaosPhase(
                    "storm",
                    10.0,
                    regimes=(("east", "blackout"), ("west", "echo")),
                ),
                ChaosPhase("after", 10.0),
            ),
        )
        simulator = Simulator(seed=9)
        network = Network(simulator)
        captured: dict[str, int] = {"east": 0, "west": 0}
        sent: dict[str, int] = {"east": 0, "west": 0}

        def make_sink(group: str):
            def on_datagram(payload, *rest):
                captured[group] += 1

            return on_datagram

        members = {
            "east": ("10.0.0.1", "10.0.0.2"),
            "west": ("10.0.0.3", "10.0.0.4"),
        }
        sinks = {"east": "10.0.1.1", "west": "10.0.1.2"}
        group_of_ip: dict[str, str] = {}
        sources = {}
        for group, ips in members.items():
            network.add_host(f"sink-{group}", sinks[group]).bind(
                53, on_datagram=make_sink(group)
            )
            for ip in ips:
                host = network.add_host(f"src-{ip}", ip)
                sources[ip] = host.bind(0)
                group_of_ip[ip] = group
        # One schedule per group, applied to every member link the way
        # run_fleet does.
        from repro.population.chaos import _group_schedule

        schedules = {group: _group_schedule(plan, group) for group in members}
        for group, ips in members.items():
            schedule = schedules[group]
            if schedule is None:
                continue
            for ip in ips:
                network.apply_fault_schedule(ip, sinks[group], schedule)

        for step in range(30):
            for group, ips in members.items():
                for ip in ips:
                    simulator.schedule(
                        float(step),
                        sources[ip].sendto,
                        args=(b"tick", sinks[group], 53),
                    )
                    sent[group] += 1
        simulator.run()

        per_pair = network.per_pair_fault_stats()
        for group in members:
            stats = FaultStats()
            for (src, dst), pair_stats in per_pair.items():
                if group_of_ip.get(src) == group or group_of_ip.get(dst) == group:
                    stats.merge(pair_stats)
            assert (
                captured[group]
                == sent[group] - stats.dropped + stats.duplicated
            ), f"conservation violated for group {group!r}"
        # And the faults genuinely fired on the intended groups.
        east = FaultStats()
        for (src, _dst), pair_stats in per_pair.items():
            if group_of_ip.get(src) == "east":
                east.merge(pair_stats)
        assert east.dropped_partition > 0
        assert captured["west"] > sent["west"] - 0  # duplicates arrived
