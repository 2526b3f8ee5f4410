"""Tests for the pool rate-limiting scan (section VII-A)."""

from repro.measurement.rate_limit_scan import RateLimitScan
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator
from repro.ntp.pool import build_pool_population


def run_scan(size=40, rate_limit_fraction=0.38, kod_fraction=0.33, seed=17, **scan_kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim)
    pool = build_pool_population(
        sim,
        net,
        size=size,
        rate_limit_fraction=rate_limit_fraction,
        kod_fraction=kod_fraction,
    )
    scanner_host = net.add_host("scanner", "198.18.0.10")
    scan = RateLimitScan(scanner_host, sim, pool.addresses, **scan_kwargs)
    report = scan.run()
    return pool, report


class TestClassification:
    def test_all_limiting_population_detected(self):
        pool, report = run_scan(size=12, rate_limit_fraction=1.0, kod_fraction=1.0)
        assert report.servers_scanned == 12
        assert report.rate_limiting_fraction == 1.0
        assert report.kod_fraction == 1.0

    def test_no_limiting_population_detected(self):
        pool, report = run_scan(size=12, rate_limit_fraction=0.0, kod_fraction=0.0)
        assert report.rate_limiting_fraction == 0.0
        assert report.kod_fraction == 0.0
        # Non-limiting servers answer (nearly) every probe.
        assert all(
            r.responses_first_half + r.responses_second_half >= 60
            for r in report.results
        )

    def test_mixed_population_matches_ground_truth(self):
        pool, report = run_scan(size=60, rate_limit_fraction=0.4, kod_fraction=0.3)
        truth = {spec.address: spec.rate_limiting for spec in pool.specs}
        for result in report.results:
            assert result.rate_limiting == truth[result.server_ip]

    def test_kod_detection_matches_ground_truth(self):
        pool, report = run_scan(size=60, rate_limit_fraction=0.5, kod_fraction=0.4)
        truth = {spec.address: spec.sends_kod for spec in pool.specs}
        for result in report.results:
            assert result.kod_received == truth[result.server_ip]

    def test_first_half_second_half_signature(self):
        pool, report = run_scan(size=8, rate_limit_fraction=1.0, kod_fraction=0.0)
        for result in report.results:
            assert result.responses_first_half > result.responses_second_half
            assert result.responses_second_half <= 2


class TestPaperScale:
    def test_default_fractions_reproduced_on_moderate_population(self):
        pool, report = run_scan(size=120)
        assert abs(report.rate_limiting_fraction - pool.rate_limiting_fraction()) < 0.03
        assert abs(report.kod_fraction - pool.kod_fraction()) < 0.03
        assert 0.3 < report.rate_limiting_fraction < 0.5
        assert 0.25 < report.kod_fraction < 0.42
