"""Figure 5 — cumulative distribution of minimum fragment sizes.

Probes the synthetic popular-domain nameserver population with the PMTUD
methodology and rebuilds the CDF of the smallest fragment size emitted by
domains that fragment but do not deploy DNSSEC (83.2 % down to 548 bytes,
7.05 % down to 292 bytes in the paper).  Among the scanned NTP domains the
paper found exactly one signed with DNSSEC, ``time.cloudflare.com``.
"""

from __future__ import annotations

from repro.measurement.frag_scan import FragmentationScan, fragment_size_cdf
from repro.measurement.population import NameserverPopulationParameters, generate_nameservers
from repro.measurement.report import format_percentage, format_table

#: The paper's reading of Figure 5 (fractions of attackable domains).
PAPER_FIG5 = {292: 0.0705, 548: 0.832 + 0.0705}


def run_scan(size=30_000):
    return FragmentationScan(generate_nameservers(NameserverPopulationParameters(size=size))).run()


def test_fig5_fragment_size_cdf(run_once):
    report = run_once(run_scan)
    cdf = fragment_size_cdf(report)
    print()
    print(
        format_table(
            ["Min fragment size (bytes)", "Fraction of domains (CDF)"],
            [[size, format_percentage(fraction, 1)] for size, fraction in cdf],
            title="Figure 5 — CDF of fragment sizes emitted by popular domains without DNSSEC",
        )
    )
    print(f"fragmenting + unsigned domains overall: {format_percentage(report.attackable_fraction)}"
          " (paper: 7.66%)")
    signed = report.signed_ntp_domains()
    print(f"NTP domains scanned: {len(report.ntp_domains())}; DNSSEC-signed: "
          f"{', '.join(signed) or 'none'} (paper: time.cloudflare.com only)")
    values = dict(cdf)
    # Shape checks against the published curve.
    assert abs(report.attackable_fraction - 0.0766) < 0.01
    assert abs(values[292] - PAPER_FIG5[292]) < 0.03
    assert abs(values[548] - PAPER_FIG5[548]) < 0.05
    assert values[68] < values[292] < values[548] < values[1500] == 1.0
    assert signed == ["time.cloudflare.com"]
    assert len(report.ntp_domains()) == 10
