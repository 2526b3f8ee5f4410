"""The canonical JSON of population specs and chaos plans, pinned.

Every stored fleet, landscape cell and chaos checkpoint is keyed by these
strings and their digests, so the literals below were recorded from the
hand-written serialisers the shared codec replaced: any drift in key
names, nesting, list shapes or float formatting fails here first.
"""

from __future__ import annotations

import pytest

from repro.population.chaos import (
    CampaignHorizon,
    ChaosError,
    ChaosPhase,
    ChaosPlan,
    smoke_plan,
)
from repro.population.landscape import smoke_spec
from repro.population.spec import (
    ChurnSpec,
    FaultRegimeSpec,
    LinkProfileSpec,
    NoiseLayer,
    PopulationSpec,
    ResolverTopology,
    SpecError,
)

FULL_SPEC_JSON = (
    '{"attack":"P2","churn":{"join_window":300.0,"late_join_fraction":0.25,'
    '"leave_after":900.0,"leave_fraction":0.1,"leave_window":120.0},'
    '"client_mix":[["ntpd",0.5],["chrony",0.3],["openntpd",0.2]],'
    '"fault_mix":[["clean",0.5],["cut",0.5]],'
    '"fault_regimes":[{"duration":30.0,"kind":"partition","magnitude":0.0,'
    '"name":"cut","probability":0.0,"start":60.0}],'
    '"link_mix":[["default",0.5],["wan",0.5]],'
    '"link_profiles":[{"latency":0.05,"loss":0.01,"name":"wan"}],'
    '"max_duration_hours":0.5,'
    '"noise_layers":[{"attribute":"initial_clock_offset","kind":"normal",'
    '"scale":0.5},{"attribute":"join_time","kind":"uniform","scale":10.0}],'
    '"poll_jitter":0.1,"pool_rate_limit_fraction":0.5,"pool_size":8,'
    '"resolver":{"drops_fragments":true,"validates_dnssec":true},'
    '"size":12,"warmup_seconds":120.0}'
)
FULL_PLAN_JSON = (
    '{"groups":[["east",0.25],["west",0.75]],'
    '"horizon":{"checkpoint_every":250.0,"duration":900.0},'
    '"phases":[{"duration":300.0,"name":"calm","regimes":[]},'
    '{"duration":200.0,"name":"storm","regimes":[["east","blackout"],'
    '["west","lossy"]]}],'
    '"regimes":[{"duration":50.0,"kind":"partition","magnitude":0.0,'
    '"name":"blackout","probability":0.0,"start":10.0},'
    '{"duration":0.0,"kind":"bursty_loss","magnitude":0.5,"name":"lossy",'
    '"probability":0.2,"start":0.0}]}'
)


def full_spec() -> PopulationSpec:
    """A spec with every layer set away from its default."""
    return PopulationSpec(
        size=12,
        client_mix={"ntpd": 0.5, "chrony": 0.3, "openntpd": 0.2},
        poll_jitter=0.1,
        churn=ChurnSpec(
            late_join_fraction=0.25,
            join_window=300.0,
            leave_fraction=0.1,
            leave_after=900.0,
            leave_window=120.0,
        ),
        link_mix={"default": 0.5, "wan": 0.5},
        link_profiles=(LinkProfileSpec("wan", latency=0.05, loss=0.01),),
        fault_mix={"clean": 0.5, "cut": 0.5},
        fault_regimes=(
            FaultRegimeSpec("cut", kind="partition", start=60.0, duration=30.0),
        ),
        resolver=ResolverTopology(validates_dnssec=True, drops_fragments=True),
        noise_layers=(
            NoiseLayer("initial_clock_offset", kind="normal", scale=0.5),
            NoiseLayer("join_time", kind="uniform", scale=10.0),
        ),
        pool_size=8,
        pool_rate_limit_fraction=0.5,
        attack="P2",
        warmup_seconds=120.0,
        max_duration_hours=0.5,
    )


def full_plan() -> ChaosPlan:
    """A plan with every field set away from its default."""
    return ChaosPlan(
        groups=(("east", 0.25), ("west", 0.75)),
        regimes=(
            FaultRegimeSpec(
                "blackout", kind="partition", start=10.0, duration=50.0
            ),
            FaultRegimeSpec(
                "lossy", kind="bursty_loss", probability=0.2, magnitude=0.5
            ),
        ),
        phases=(
            ChaosPhase("calm", 300.0),
            ChaosPhase(
                "storm", 200.0, regimes=(("east", "blackout"), ("west", "lossy"))
            ),
        ),
        horizon=CampaignHorizon(duration=900.0, checkpoint_every=250.0),
    )


class TestPinnedCanonicalForm:
    def test_full_spec_json(self):
        assert full_spec().to_json() == FULL_SPEC_JSON
        assert PopulationSpec.from_json(FULL_SPEC_JSON) == full_spec()

    def test_full_plan_json(self):
        assert full_plan().to_json() == FULL_PLAN_JSON
        assert ChaosPlan.from_json(FULL_PLAN_JSON) == full_plan()

    def test_surface_digests(self):
        assert PopulationSpec().digest() == "94dac6728c67135a"
        assert smoke_spec().digest() == "5466885ea5c64ad8"
        assert smoke_plan().digest() == "955bc054510933f9"


class TestNestedValidation:
    def test_unknown_nested_fields_raise_the_owner_error(self):
        with pytest.raises(SpecError, match="unknown ChurnSpec fields"):
            PopulationSpec.from_dict({"churn": {"colour": "mauve"}})
        with pytest.raises(ChaosError, match="unknown ChaosPhase fields"):
            ChaosPlan.from_dict({"phases": [{"name": "p", "duration": 1.0, "x": 1}]})

    def test_nested_specs_must_be_objects(self):
        with pytest.raises(ChaosError, match="CampaignHorizon must be an object"):
            ChaosPlan.from_dict({"horizon": [1.0, 2.0]})
