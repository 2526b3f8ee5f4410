"""ChaosPlan parsing, validation, serialisation, and timeline helpers."""

from __future__ import annotations

import json

import pytest

from repro.population.chaos import (
    CampaignHorizon,
    ChaosError,
    ChaosPhase,
    ChaosPlan,
    CorrelationGroup,
    plan_from_json,
    smoke_plan,
)
from repro.population.spec import FaultRegimeSpec


def storm_plan() -> ChaosPlan:
    return ChaosPlan(
        groups=(CorrelationGroup("east", 0.5), CorrelationGroup("west", 0.5)),
        regimes=(FaultRegimeSpec("blackout", kind="partition"),),
        phases=(
            ChaosPhase("calm", 900.0),
            ChaosPhase("storm", 600.0, regimes=(("east", "blackout"),)),
        ),
        horizon=CampaignHorizon(duration=1800.0, checkpoint_every=500.0),
    )


class TestValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ChaosError):
            ChaosPlan(groups=(CorrelationGroup("a"), CorrelationGroup("a")))
        with pytest.raises(ChaosError):
            ChaosPlan(
                regimes=(
                    FaultRegimeSpec("r", kind="jitter", probability=0.1),
                    FaultRegimeSpec("r", kind="corruption", probability=0.1),
                )
            )
        with pytest.raises(ChaosError):
            ChaosPlan(phases=(ChaosPhase("p", 1.0), ChaosPhase("p", 2.0)))

    def test_phase_references_must_be_declared(self):
        with pytest.raises(ChaosError, match="undeclared group"):
            ChaosPlan(
                phases=(ChaosPhase("p", 1.0, regimes=(("ghost", "clean"),)),)
            )
        with pytest.raises(ChaosError, match="undeclared regime"):
            ChaosPlan(
                groups=(CorrelationGroup("g"),),
                phases=(ChaosPhase("p", 1.0, regimes=(("g", "ghost"),)),),
            )

    def test_builtin_regimes_usable_without_declaration(self):
        plan = ChaosPlan(
            groups=(CorrelationGroup("g"),),
            phases=(ChaosPhase("p", 10.0, regimes=(("g", "bursty"),)),),
        )
        assert plan.regime_table()["bursty"].kind == "bursty_loss"

    def test_horizon_must_cover_phases(self):
        with pytest.raises(ChaosError, match="shorter"):
            ChaosPlan(
                phases=(ChaosPhase("p", 100.0),),
                horizon=CampaignHorizon(duration=50.0),
            )

    def test_group_and_phase_bounds(self):
        with pytest.raises(ChaosError):
            CorrelationGroup("g", weight=0.0)
        with pytest.raises(ChaosError):
            ChaosPhase("p", 0.0)
        with pytest.raises(ChaosError):
            ChaosPhase("p", 1.0, regimes=(("g", "a"), ("g", "b")))
        with pytest.raises(ChaosError):
            CampaignHorizon(duration=-1.0)


class TestTimeline:
    def test_total_duration_defaults_to_phase_sum(self):
        plan = ChaosPlan(phases=(ChaosPhase("a", 10.0), ChaosPhase("b", 5.0)))
        assert plan.total_duration() == 15.0
        assert ChaosPlan().total_duration() == 0.0

    def test_phase_starts_and_phase_at(self):
        plan = storm_plan()
        assert plan.phase_at(0.0) == "calm"
        assert plan.phase_at(899.9) == "calm"
        assert plan.phase_at(900.0) == "storm"
        assert plan.phase_at(1499.9) == "storm"
        assert plan.phase_at(1500.0) == ""  # horizon tail runs healed

    def test_checkpoints_union_boundaries_cadence_horizon(self):
        plan = storm_plan()
        # phase boundaries {900, 1500} ∪ cadence {500, 1000, 1500} ∪ {1800}
        assert plan.checkpoints() == (500.0, 900.0, 1000.0, 1500.0, 1800.0)
        assert ChaosPlan().checkpoints() == ()

    def test_boundary_checkpoints_only_without_cadence(self):
        plan = ChaosPlan(phases=(ChaosPhase("a", 10.0), ChaosPhase("b", 5.0)))
        assert plan.checkpoints() == (10.0, 15.0)


class TestSerialisation:
    def test_json_round_trip_preserves_digest(self):
        plan = storm_plan()
        clone = ChaosPlan.from_json(plan.to_json())
        assert clone == plan
        assert clone.digest() == plan.digest()

    def test_canonical_json_is_stable(self):
        assert storm_plan().to_json() == storm_plan().to_json()
        assert storm_plan().digest() != smoke_plan().digest()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ChaosError, match="unknown chaos plan fields"):
            ChaosPlan.from_dict({"blast_radius": 1.0})
        with pytest.raises(ChaosError):
            ChaosPlan.from_json("[1, 2]")
        with pytest.raises(ChaosError):
            ChaosPlan.from_json("{not json")

    def test_plan_from_json_memoises(self):
        text = storm_plan().to_json()
        assert plan_from_json(text) is plan_from_json(text)

    def test_to_dict_is_json_safe(self):
        json.dumps(storm_plan().to_dict())
