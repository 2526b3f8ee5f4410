"""Tests for the synthetic pool population."""

from repro.netsim.network import Network
from repro.netsim.simulator import Simulator
from repro.ntp.pool import (
    PAPER_KOD_FRACTION,
    PAPER_POOL_SIZE,
    PAPER_RATE_LIMIT_FRACTION,
    build_pool_population,
)


class TestPopulationGeneration:
    def build(self, size=200, **kwargs):
        sim = Simulator(seed=10)
        net = Network(sim)
        return build_pool_population(sim, net, size=size, **kwargs), sim, net

    def test_size_and_unique_addresses(self):
        population, _, _ = self.build(size=100)
        assert len(population.specs) == 100
        assert len(set(population.addresses)) == 100

    def test_default_fractions_match_paper(self):
        population, _, _ = self.build(size=400)
        assert abs(population.rate_limiting_fraction() - PAPER_RATE_LIMIT_FRACTION) < 0.02
        assert abs(population.kod_fraction() - PAPER_KOD_FRACTION) < 0.02

    def test_kod_servers_are_subset_of_rate_limiters(self):
        population, _, _ = self.build(size=300)
        for spec in population.specs:
            if spec.sends_kod:
                assert spec.rate_limiting

    def test_custom_rate_limit_fraction(self):
        population, _, _ = self.build(size=200, rate_limit_fraction=1.0, kod_fraction=1.0)
        assert population.rate_limiting_fraction() == 1.0

    def test_servers_instantiated_with_matching_config(self):
        population, _, _ = self.build(size=50)
        for spec in population.specs:
            server = population.servers[spec.address]
            assert server.config.rate_limiting == spec.rate_limiting
            assert server.config.send_kod == spec.sends_kod

    def test_specs_only_mode(self):
        population, _, net = self.build(size=50, instantiate_servers=False)
        assert population.servers == {}
        assert len(net.hosts()) == 0

    def test_open_config_fraction(self):
        population, _, _ = self.build(size=1000)
        assert 0.03 < population.open_config_fraction() < 0.08

    def test_paper_pool_size_constant(self):
        assert PAPER_POOL_SIZE == 2432
