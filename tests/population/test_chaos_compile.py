"""The chaos compiler is pure: (plan, size, seed) → labels + schedules."""

from __future__ import annotations

from repro.netsim.faults import FaultSchedule, GilbertElliott, Partition
from repro.population.chaos import (
    CampaignHorizon,
    ChaosPhase,
    ChaosPlan,
    assign_groups,
    compile_chaos,
)
from repro.population.spec import FaultRegimeSpec


def two_group_plan(**horizon) -> ChaosPlan:
    return ChaosPlan(
        groups=(("east", 0.5), ("west", 0.5)),
        regimes=(FaultRegimeSpec("blackout", kind="partition"),),
        phases=(
            ChaosPhase("calm", 900.0),
            ChaosPhase("storm", 600.0, regimes=(("east", "blackout"),)),
        ),
        horizon=CampaignHorizon(**horizon),
    )


class TestAssignGroups:
    def test_no_groups_means_empty_labels(self):
        assert assign_groups(ChaosPlan(), 3, seed=0) == ("", "", "")

    def test_single_group_assigns_without_randomness(self):
        plan = ChaosPlan(groups=(("only", 1.0),))
        assert assign_groups(plan, 4, seed=0) == ("only",) * 4
        assert assign_groups(plan, 4, seed=99) == ("only",) * 4

    def test_assignment_is_deterministic_per_seed(self):
        plan = two_group_plan()
        first = assign_groups(plan, 64, seed=7)
        assert assign_groups(plan, 64, seed=7) == first
        assert set(first) <= {"east", "west"}
        # Both groups are actually populated at this size.
        assert {"east", "west"} <= set(first)

    def test_different_seeds_differ(self):
        plan = two_group_plan()
        draws = {assign_groups(plan, 32, seed=s) for s in range(4)}
        assert len(draws) > 1


class TestCompile:
    def test_empty_plan_compiles_to_nothing(self):
        compilation = compile_chaos(ChaosPlan(), 8, seed=0)
        assert compilation.is_inert
        assert compilation.schedules == {}
        assert compilation.group_of == ("",) * 8
        assert compilation.checkpoints == ()

    def test_all_clean_phases_collapse_to_no_schedules(self):
        plan = ChaosPlan(
            groups=(("east", 1.0), ("west", 1.0)),
            phases=(ChaosPhase("calm", 100.0), ChaosPhase("still", 100.0)),
        )
        compilation = compile_chaos(plan, 8, seed=0)
        assert compilation.is_inert
        assert compilation.schedules == {}
        # Groups are still assigned — reporting wants the labels even when
        # nothing faults.
        assert set(compilation.group_of) <= {"east", "west"}

    def test_storm_group_gets_swap_and_heal(self):
        plan = two_group_plan()
        compilation = compile_chaos(plan, 32, seed=7)
        east = [
            index
            for index, label in enumerate(compilation.group_of)
            if label == "east"
        ]
        west = [
            index
            for index, label in enumerate(compilation.group_of)
            if label == "west"
        ]
        assert east and west
        # Only the partitioned group carries a schedule at all.
        assert set(compilation.schedules) == set(east)
        schedule = compilation.schedules[east[0]]
        assert isinstance(schedule, FaultSchedule)
        # One swap at the storm start, one heal at its end.
        (swap_time, components), (heal_time, healed) = schedule.entries
        assert swap_time == 900.0
        assert heal_time == 1500.0
        assert healed == ()
        (partition,) = components
        # duration == 0 in the regime means "the rest of the phase",
        # re-anchored onto the absolute clock.
        assert partition == Partition(900.0, 600.0)

    def test_windowed_regime_offset_inside_phase(self):
        plan = ChaosPlan(
            groups=(("g", 1.0),),
            regimes=(
                FaultRegimeSpec(
                    "mid", kind="partition", start=100.0, duration=50.0
                ),
            ),
            phases=(ChaosPhase("p", 400.0, regimes=(("g", "mid"),)),),
        )
        compilation = compile_chaos(plan, 2, seed=0)
        schedule = compilation.schedules[0]
        (_, components), _heal = schedule.entries
        assert components == (Partition(100.0, 50.0),)

    def test_probabilistic_regime_persists_until_next_swap(self):
        plan = ChaosPlan(
            groups=(("g", 1.0),),
            regimes=(
                FaultRegimeSpec(
                    "lossy", kind="bursty_loss", probability=0.2, magnitude=0.5
                ),
            ),
            phases=(
                ChaosPhase("bad", 100.0, regimes=(("g", "lossy"),)),
                ChaosPhase("good", 100.0),
            ),
        )
        schedule = compile_chaos(plan, 1, seed=0).schedules[0]
        (start, components), (heal, healed) = schedule.entries
        assert start == 0.0
        assert isinstance(components[0], GilbertElliott)
        assert (heal, healed) == (100.0, ())

    def test_identical_consecutive_states_do_not_reswap(self):
        plan = ChaosPlan(
            groups=(("g", 1.0),),
            regimes=(
                FaultRegimeSpec("lossy", kind="jitter", probability=0.3),
            ),
            phases=(
                ChaosPhase("one", 50.0, regimes=(("g", "lossy"),)),
                ChaosPhase("two", 50.0, regimes=(("g", "lossy"),)),
            ),
        )
        schedule = compile_chaos(plan, 1, seed=0).schedules[0]
        # A single attach at 0 and a single heal at 100 — no churn at 50.
        assert [time for time, _ in schedule.entries] == [0.0, 100.0]

    def test_compile_is_pure(self):
        plan = two_group_plan(duration=1800.0, checkpoint_every=500.0)
        first = compile_chaos(plan, 16, seed=3)
        second = compile_chaos(plan, 16, seed=3)
        assert first.group_of == second.group_of
        assert first.checkpoints == second.checkpoints == (
            500.0,
            900.0,
            1000.0,
            1500.0,
            1800.0,
        )
        assert set(first.schedules) == set(second.schedules)
        for index in first.schedules:
            assert (
                first.schedules[index].entries
                == second.schedules[index].entries
            )
