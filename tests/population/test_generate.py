"""Fleet generation: deterministic, stream-independent, draw-free defaults."""

from __future__ import annotations

import pytest

from repro.population.generate import MIN_LIFETIME, generate_fleet
from repro.population.spec import ChurnSpec, NoiseLayer, PopulationSpec


def _hetero_spec(**overrides) -> PopulationSpec:
    kwargs = dict(
        size=400,
        client_mix={"ntpd": 0.5, "chrony": 0.3, "ntpdate": 0.2},
        poll_jitter=0.2,
        link_mix={"default": 0.6, "mobile": 0.4},
        fault_mix={"clean": 0.7, "bursty": 0.3},
    )
    kwargs.update(overrides)
    return PopulationSpec(**kwargs)


class TestDeterminism:
    def test_same_spec_same_seed_is_identical(self):
        spec = _hetero_spec(
            churn=ChurnSpec(late_join_fraction=0.3, leave_fraction=0.2),
            noise_layers=(NoiseLayer("initial_clock_offset", scale=0.1),),
        )
        assert generate_fleet(spec, 3) == generate_fleet(spec, 3)

    def test_different_seeds_differ(self):
        spec = _hetero_spec()
        a = generate_fleet(spec, 1)
        b = generate_fleet(spec, 2)
        assert [c.client_type for c in a.clients] != [
            c.client_type for c in b.clients
        ]

    def test_manifest_records_spec_digest(self):
        spec = _hetero_spec()
        fleet = generate_fleet(spec, 0)
        assert fleet.spec_digest == spec.digest()
        assert fleet.size == spec.size == len(fleet.clients)

    def test_named_streams_are_attribute_independent(self):
        # Turning poll jitter on must not reshuffle the client-type or
        # link draws: each attribute reads its own named stream.
        jittered = generate_fleet(_hetero_spec(), 7)
        unjittered = generate_fleet(_hetero_spec(poll_jitter=0.0), 7)
        assert [c.client_type for c in jittered.clients] == [
            c.client_type for c in unjittered.clients
        ]
        assert [c.link_profile for c in jittered.clients] == [
            c.link_profile for c in unjittered.clients
        ]

    def test_noise_layers_do_not_shift_other_attributes(self):
        noisy = generate_fleet(
            _hetero_spec(
                noise_layers=(NoiseLayer("initial_clock_offset", scale=5.0),)
            ),
            7,
        )
        plain = generate_fleet(_hetero_spec(), 7)
        assert [c.poll_multiplier for c in noisy.clients] == [
            c.poll_multiplier for c in plain.clients
        ]
        assert any(c.initial_clock_offset != 0.0 for c in noisy.clients)


class TestDegenerateSpecs:
    def test_degenerate_spec_draws_nothing(self):
        spec = PopulationSpec(size=5, client_mix={"ntpd": 1.0})
        fleet = generate_fleet(spec, 9)
        for client in fleet.clients:
            assert client.client_type == "ntpd"
            assert client.poll_multiplier == 1.0
            assert client.initial_clock_offset == 0.0
            assert client.join_time == 0.0
            assert client.leave_time is None
            assert client.link_profile == "default"
            assert client.fault_regime == "clean"


class TestMixesAndChurn:
    def test_type_counts_track_mix_proportions(self):
        fleet = generate_fleet(_hetero_spec(size=4000), 11)
        counts = fleet.type_counts()
        assert counts["ntpd"] / 4000 == pytest.approx(0.5, abs=0.05)
        assert counts["chrony"] / 4000 == pytest.approx(0.3, abs=0.05)
        assert counts["ntpdate"] / 4000 == pytest.approx(0.2, abs=0.05)

    def test_poll_jitter_bounds(self):
        fleet = generate_fleet(_hetero_spec(poll_jitter=0.2, size=500), 1)
        multipliers = [c.poll_multiplier for c in fleet.clients]
        assert all(0.8 <= m <= 1.2 for m in multipliers)
        assert len(set(multipliers)) > 1

    def test_churn_schedule_shape(self):
        spec = _hetero_spec(
            size=1000,
            churn=ChurnSpec(
                late_join_fraction=0.4,
                join_window=600.0,
                leave_fraction=0.25,
                leave_after=1800.0,
                leave_window=300.0,
            ),
        )
        fleet = generate_fleet(spec, 4)
        late = [c for c in fleet.clients if c.join_time > 0.0]
        leavers = [c for c in fleet.clients if c.leave_time is not None]
        assert len(late) / 1000 == pytest.approx(0.4, abs=0.06)
        assert len(leavers) / 1000 == pytest.approx(0.25, abs=0.06)
        for client in late:
            assert 0.0 < client.join_time <= 600.0
        for client in leavers:
            assert client.leave_time >= client.join_time + MIN_LIFETIME
            assert client.leave_time <= 1800.0 + 300.0 + client.join_time

    def test_join_noise_clips_at_zero(self):
        spec = _hetero_spec(
            size=300,
            churn=ChurnSpec(late_join_fraction=0.5, join_window=100.0),
            noise_layers=(NoiseLayer("join_time", kind="normal", scale=200.0),),
        )
        fleet = generate_fleet(spec, 2)
        assert all(c.join_time >= 0.0 for c in fleet.clients)
