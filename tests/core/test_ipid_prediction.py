"""Tests for IPID sampling and prediction."""

import numpy as np

from repro.core.ipid_prediction import IPIDPredictor
from repro.dns.nameserver import PoolNameserver
from repro.netsim.addresses import address_range
from repro.netsim.ipid import GlobalCounterIPID
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator


class UniformRandomIPID:
    """Uniformly random IPIDs: the negative control no host uses."""

    def __init__(self) -> None:
        self._rng = np.random.default_rng(0)

    def next_ipid(self, dst: str) -> int:
        return int(self._rng.integers(0, 1 << 16))


def build_env(ipid_allocator=None):
    sim = Simulator(seed=13)
    net = Network(sim)
    ns_host = net.add_host("ns", "198.51.100.10")
    ns_host.ipid_allocator = ipid_allocator or GlobalCounterIPID(start=500)
    PoolNameserver(ns_host, address_range("203.0.113.1", 20), rng=sim.spawn_rng())
    attacker_host = net.add_host("attacker", "66.0.0.1")
    return sim, net, ns_host, attacker_host


class TestPrediction:
    def test_observes_ipids_from_own_queries(self):
        sim, net, ns_host, attacker_host = build_env()
        predictor = IPIDPredictor(attacker_host, sim, "198.51.100.10")
        predictions = []
        predictor.probe(count=4, on_done=predictions.append)
        sim.run()
        assert len(predictor.observations) == 4
        assert predictions and predictions[0].predictable

    def test_prediction_matches_next_response_to_victim(self):
        sim, net, ns_host, attacker_host = build_env()
        predictor = IPIDPredictor(attacker_host, sim, "198.51.100.10")
        predictions = []
        predictor.probe(count=4, on_done=predictions.append)
        sim.run()
        predicted = predictions[0].predicted_next
        # The next packet the nameserver sends (to anyone) uses exactly the
        # predicted IPID, because the counter is global.
        assert ns_host.ipid_allocator.next_ipid("victim-resolver") == predicted

    def test_candidate_window_covers_prediction(self):
        sim, net, ns_host, attacker_host = build_env()
        predictor = IPIDPredictor(attacker_host, sim, "198.51.100.10")
        predictions = []
        predictor.probe(count=3, on_done=predictions.append)
        sim.run()
        candidates = predictions[0].candidates(16)
        assert predictions[0].predicted_next in candidates
        assert len(candidates) == 16

    def test_candidates_wrap_around_16_bits(self):
        sim, net, ns_host, attacker_host = build_env(
            ipid_allocator=GlobalCounterIPID(start=0xFFFE)
        )
        predictor = IPIDPredictor(attacker_host, sim, "198.51.100.10")
        predictions = []
        predictor.probe(count=2, on_done=predictions.append)
        sim.run()
        assert all(0 <= c <= 0xFFFF for c in predictions[0].candidates(8))

    def test_no_observations_means_unpredictable(self):
        sim, net, ns_host, attacker_host = build_env()
        predictor = IPIDPredictor(attacker_host, sim, "198.51.100.10")
        prediction = predictor.prediction()
        assert not prediction.predictable

    def test_random_ipids_not_marked_predictable(self):
        sim, net, ns_host, attacker_host = build_env(ipid_allocator=UniformRandomIPID())
        predictor = IPIDPredictor(attacker_host, sim, "198.51.100.10")
        predictions = []
        predictor.probe(count=6, on_done=predictions.append)
        sim.run()
        # With uniformly random IPIDs the apparent rate is huge/erratic.
        assert not predictions[0].predictable

    def test_only_nameserver_packets_observed(self):
        sim, net, ns_host, attacker_host = build_env()
        other_host = net.add_host("other", "198.51.100.99")
        predictor = IPIDPredictor(attacker_host, sim, "198.51.100.10")
        socket = attacker_host.bind(4000)
        other_socket = other_host.bind(0)
        other_socket.sendto(b"noise", "66.0.0.1", 4000)
        sim.run()
        assert predictor.observations == []
