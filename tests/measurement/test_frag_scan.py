"""Tests for the nameserver fragmentation scan (Figure 5 / section VII-B)."""

from repro.measurement.frag_scan import FragmentationScan, fragment_size_cdf
from repro.measurement.population import (
    NameserverSpec,
    generate_nameservers,
    generate_pool_nameservers,
)


class TestProbe:
    def test_pmtud_honouring_server_reports_fragmenting(self):
        spec = NameserverSpec(
            domain="x.example", address="101.0.0.1", supports_dnssec=False,
            honors_pmtud=True, min_fragment_size=548,
        )
        result = FragmentationScan.probe(spec)
        assert result.emits_fragments and result.min_fragment_size == 548
        assert result.attackable

    def test_pmtud_ignoring_server_never_fragments(self):
        spec = NameserverSpec(
            domain="x.example", address="101.0.0.1", supports_dnssec=False,
            honors_pmtud=False, min_fragment_size=292,
        )
        result = FragmentationScan.probe(spec)
        assert not result.emits_fragments and not result.attackable

    def test_signed_domain_not_attackable_even_if_fragmenting(self):
        spec = NameserverSpec(
            domain="signed.example", address="101.0.0.1", supports_dnssec=True,
            honors_pmtud=True, min_fragment_size=548,
        )
        assert not FragmentationScan.probe(spec).attackable


class TestFigure5:
    def test_attackable_fraction_and_cdf_shape(self):
        report = FragmentationScan(generate_nameservers()).run()
        assert abs(report.attackable_fraction - 0.0766) < 0.012
        cdf = dict(fragment_size_cdf(report))
        assert cdf[1500] == 1.0
        assert 0.85 <= cdf[548] <= 0.97
        assert 0.04 <= cdf[292] <= 0.15
        assert cdf[68] < cdf[292] < cdf[548] <= cdf[1276] <= cdf[1500]

    def test_signed_fraction_about_one_percent(self):
        report = FragmentationScan(generate_nameservers()).run()
        assert 0.003 < report.dnssec_signed / report.domains_scanned < 0.02

    def test_single_signed_ntp_domain(self):
        report = FragmentationScan(generate_nameservers()).run()
        assert report.signed_ntp_domains() == ["time.cloudflare.com"]
        assert len(report.ntp_domains()) == 10


class TestPoolNameserverScan:
    def test_sixteen_of_thirty_fragment_and_none_signed(self):
        scan = FragmentationScan([])
        summary = scan.scan_pool_nameservers(generate_pool_nameservers())
        assert summary["nameservers"] == 30
        assert summary["fragment_below_548"] == 16
        assert summary["dnssec_signed"] == 0

    def test_empty_population(self):
        report = FragmentationScan([]).run()
        assert report.domains_scanned == 0
        assert report.attackable_fraction == 0.0
        assert fragment_size_cdf(report) == [(68, 0.0), (292, 0.0), (548, 0.0), (1276, 0.0), (1500, 0.0)]
