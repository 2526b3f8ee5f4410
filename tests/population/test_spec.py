"""PopulationSpec: validation, serialisation round-trips, default shares."""

from __future__ import annotations

import json

import pytest

from repro.measurement.population import (
    PAPER_CLIENT_MARKET_SHARES,
    default_client_mix,
)
from repro.ntp.clients import CLIENT_REGISTRY
from repro.population.spec import (
    BUILTIN_FAULT_REGIMES,
    BUILTIN_LINK_PROFILES,
    ChurnSpec,
    FaultRegimeSpec,
    LinkProfileSpec,
    NoiseLayer,
    PopulationSpec,
    SpecError,
    regime_table,
)


class TestValidation:
    def test_defaults_build(self):
        spec = PopulationSpec()
        assert spec.size == 1
        assert spec.churn.late_join_fraction == spec.churn.leave_fraction == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size": 0},
            {"pool_size": 0},
            {"pool_rate_limit_fraction": 1.5},
            {"attack": "P3"},
            {"poll_jitter": 1.0},
            {"max_duration_hours": 0.0},
            {"client_mix": {}},
            {"client_mix": {"ntpd": -1.0}},
            {"client_mix": {"ntpd": 0.0}},
            {"client_mix": {"no-such-client": 1.0}},
            {"link_mix": {"no-such-profile": 1.0}},
            {"fault_mix": {"no-such-regime": 1.0}},
        ],
    )
    def test_invalid_specs_raise(self, kwargs):
        with pytest.raises(SpecError):
            PopulationSpec(**kwargs)

    def test_duplicate_mix_entries_raise(self):
        with pytest.raises(SpecError, match="twice"):
            PopulationSpec(client_mix=[("ntpd", 0.5), ("ntpd", 0.5)])

    def test_churn_fraction_bounds(self):
        with pytest.raises(SpecError):
            ChurnSpec(late_join_fraction=1.5)
        with pytest.raises(SpecError):
            ChurnSpec(leave_fraction=-0.1)

    def test_noise_layer_bounds(self):
        with pytest.raises(SpecError):
            NoiseLayer(attribute="no-such-attribute")
        with pytest.raises(SpecError):
            NoiseLayer(attribute="poll_interval")
        with pytest.raises(SpecError):
            NoiseLayer(attribute="initial_clock_offset", kind="cauchy")
        with pytest.raises(SpecError):
            NoiseLayer(attribute="initial_clock_offset", scale=-1.0)

    def test_declared_profiles_extend_builtins(self):
        spec = PopulationSpec(
            link_mix={"default": 0.5, "dialup": 0.5},
            link_profiles=(LinkProfileSpec("dialup", latency=0.2),),
            fault_mix={"clean": 0.5, "storm": 0.5},
            fault_regimes=(
                FaultRegimeSpec("storm", kind="bursty_loss", probability=0.2),
            ),
        )
        table = spec.link_profile_table()
        assert set(BUILTIN_LINK_PROFILES) <= set(table)
        assert table["dialup"].latency == 0.2
        assert "storm" in regime_table(spec.fault_regimes)
        assert set(BUILTIN_FAULT_REGIMES) <= set(regime_table(spec.fault_regimes))


class TestSerialisation:
    def _rich_spec(self) -> PopulationSpec:
        return PopulationSpec(
            size=40,
            client_mix={"ntpd": 0.6, "chrony": 0.4},
            poll_jitter=0.2,
            churn=ChurnSpec(late_join_fraction=0.3, leave_fraction=0.1),
            link_mix={"default": 0.7, "mobile": 0.3},
            fault_mix={"clean": 0.8, "bursty": 0.2},
            noise_layers=(
                NoiseLayer("initial_clock_offset", kind="lognormal", scale=0.1),
                NoiseLayer("join_time", kind="normal", scale=30.0),
            ),
            pool_size=16,
            pool_rate_limit_fraction=0.5,
            warmup_seconds=300.0,
            max_duration_hours=0.5,
        )

    def test_json_round_trip_is_identity(self):
        spec = self._rich_spec()
        assert PopulationSpec.from_json(spec.to_json()) == spec

    def test_canonical_json_and_digest_are_stable(self):
        spec = self._rich_spec()
        assert spec.to_json() == PopulationSpec.from_json(spec.to_json()).to_json()
        assert spec.digest() == spec.digest()
        assert spec.digest() != PopulationSpec().digest()

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecError, match="unknown population spec fields"):
            PopulationSpec.from_dict({"size": 3, "colour": "mauve"})

    def test_invalid_json_raises_spec_error(self):
        with pytest.raises(SpecError):
            PopulationSpec.from_json("{nope")
        with pytest.raises(SpecError):
            PopulationSpec.from_json("[1, 2]")


class TestDefaultShares:
    """The paper marginals are the single source of default client shares."""

    def test_paper_shares_match_client_class_attributes(self):
        # Every registry class carrying a pool_usage_share must agree with
        # the documented marginals, and vice versa — one source of truth.
        by_class = {
            name: cls.pool_usage_share
            for name, cls in CLIENT_REGISTRY.items()
            if cls.pool_usage_share is not None
        }
        assert by_class == PAPER_CLIENT_MARKET_SHARES

    def test_default_mix_is_renormalised_marginals(self):
        mix = default_client_mix()
        assert mix.keys() == PAPER_CLIENT_MARKET_SHARES.keys()
        assert sum(mix.values()) == pytest.approx(1.0)
        total = sum(PAPER_CLIENT_MARKET_SHARES.values())
        for name, share in PAPER_CLIENT_MARKET_SHARES.items():
            assert mix[name] == pytest.approx(share / total)

    def test_default_spec_uses_paper_mix(self):
        spec = PopulationSpec()
        assert dict(spec.client_mix) == pytest.approx(default_client_mix())
        effective = spec.effective_client_mix()
        assert sum(effective.values()) == pytest.approx(1.0)
