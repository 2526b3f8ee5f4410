"""Fleet simulation and its engine integration (scenarios, pool runs)."""

from __future__ import annotations

from repro.experiments.runner import ExperimentRunner, RunSpec
from repro.experiments.scenarios import get_scenario
from repro.population.fleet import run_fleet
from repro.population.spec import ChurnSpec, PopulationSpec, ResolverTopology


def _small_spec(**overrides) -> PopulationSpec:
    kwargs = dict(
        size=6,
        client_mix={"ntpd": 0.5, "chrony": 0.3, "systemd-timesyncd": 0.2},
        poll_jitter=0.1,
        pool_size=8,
        warmup_seconds=120.0,
        max_duration_hours=0.05,
    )
    kwargs.update(overrides)
    return PopulationSpec(**kwargs)


class TestRunFleet:
    def test_deterministic_for_fixed_spec_and_seed(self):
        spec = _small_spec(churn=ChurnSpec(late_join_fraction=0.3))
        assert run_fleet(spec, seed=3) == run_fleet(spec, seed=3)

    def test_document_shape_with_details(self):
        spec = _small_spec()
        document = run_fleet(spec, seed=1)
        assert document["size"] == 6
        assert document["spec_digest"] == spec.digest()
        assert sum(document["type_counts"].values()) == 6
        assert len(document["clients"]) == 6
        aggregate = document["aggregate"]
        assert aggregate["total"] == 6
        assert aggregate["successes"] == document["successes"]
        assert document["events_processed"] > 0
        assert document["packets_transmitted"] > 0

    def test_details_dropped_beyond_limit(self):
        document = run_fleet(_small_spec(), seed=1, detail_limit=3)
        assert "clients" not in document
        assert document["aggregate"]["total"] == 6

    def test_heterogeneous_link_and_fault_mixes_run(self):
        spec = _small_spec(
            link_mix={"default": 0.5, "mobile": 0.5},
            fault_mix={"clean": 0.5, "bursty": 0.25, "jittery": 0.25},
        )
        document = run_fleet(spec, seed=2)
        assert document["aggregate"]["total"] == 6

    def test_fragment_dropping_resolver_defeats_the_attack(self):
        """The fleet plants poisoned records straight into the resolver
        cache, standing in for the fragment attack; a resolver that drops
        fragments is immune to it (section III), so nothing is planted."""

        def spec(resolver: ResolverTopology) -> PopulationSpec:
            return PopulationSpec(
                size=4,
                client_mix={"ntpd": 0.5, "chrony": 0.5},
                pool_size=16,
                max_duration_hours=0.35,
                resolver=resolver,
            )

        default = run_fleet(spec(ResolverTopology()), seed=3)
        assert default["successes"] == 3
        assert default["events_processed"] == 69476
        assert default["packets_transmitted"] == 35454
        filtering = run_fleet(spec(ResolverTopology(drops_fragments=True)), seed=3)
        assert filtering["successes"] == 0
        assert filtering["aggregate"]["total"] == 4

    def test_spec_from_json_memoises(self):
        text = _small_spec().to_json()
        assert PopulationSpec.from_json(text) is PopulationSpec.from_json(text)
        assert PopulationSpec.from_json(text) == _small_spec()


class TestEngineIntegration:
    def test_population_fleet_scenario_matches_direct_call(self):
        spec = _small_spec()
        scenario = get_scenario("population_fleet")
        assert scenario(spec_json=spec.to_json(), seed=4) == run_fleet(spec, seed=4)

    def test_pool_run_matches_serial(self):
        spec_json = _small_spec(size=3).to_json()
        specs = [
            RunSpec.make("population_fleet", spec_json=spec_json, seed=seed)
            for seed in range(4)
        ]
        serial = ExperimentRunner(max_workers=1).run(specs)
        pool_runner = ExperimentRunner(max_workers=2)
        pooled = pool_runner.run(specs)
        assert pool_runner.last_execution_mode.startswith("processes")
        assert [outcome.result for outcome in pooled] == [
            outcome.result for outcome in serial
        ]
