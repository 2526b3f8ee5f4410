"""Nameserver fragmentation / PMTUD scan (Figure 5, section VII-B).

The paper probes nameservers by sending an ICMP fragmentation-needed message
followed by a DNS query and observing whether (and how small) the response
fragments, while also checking whether the domain deploys DNSSEC.  A domain
is counted as *attackable* when it emits fragments **and** does not deploy
DNSSEC — those are the domains whose resolvers can be poisoned off-path with
the fragment-replacement technique.

The study runs against the synthetic popular-domain population; a second,
much smaller variant (:meth:`FragmentationScan.scan_pool_nameservers`) runs
against the 30 ``pool.ntp.org`` nameservers, reproducing the "16 of 30
fragment to 548 bytes or less, none support DNSSEC" result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.measurement.population import NameserverSpec

#: The MTU steps the paper's CDF (Figure 5) is plotted over.
FIGURE5_MTU_STEPS = (68, 292, 548, 1276, 1500)
#: The fragment-size threshold used for the pool-nameserver statement.
POOL_FRAGMENT_THRESHOLD = 548


@dataclass
class DomainScanResult:
    """Per-domain outcome of the PMTUD probe."""

    domain: str
    supports_dnssec: bool
    emits_fragments: bool
    min_fragment_size: int
    is_ntp_domain: bool = False

    @property
    def attackable(self) -> bool:
        """Fragmenting and unsigned: poisonable by off-path fragment injection."""
        return self.emits_fragments and not self.supports_dnssec


@dataclass
class FragmentationScanReport:
    """Aggregate result of the nameserver fragmentation scan."""

    domains_scanned: int
    fragmenting_no_dnssec: int
    dnssec_signed: int
    results: list[DomainScanResult] = field(default_factory=list)

    @property
    def attackable_fraction(self) -> float:
        """Fraction of domains vulnerable to fragmentation-based poisoning."""
        if self.domains_scanned == 0:
            return 0.0
        return self.fragmenting_no_dnssec / self.domains_scanned

    def fraction_fragmenting_to(self, size: int) -> float:
        """Among attackable domains: fraction fragmenting to <= ``size`` bytes."""
        attackable = [r for r in self.results if r.attackable]
        if not attackable:
            return 0.0
        return sum(1 for r in attackable if r.min_fragment_size <= size) / len(attackable)

    def ntp_domains(self) -> list[DomainScanResult]:
        """Results restricted to the NTP domains in the population."""
        return [r for r in self.results if r.is_ntp_domain]

    def signed_ntp_domains(self) -> list[str]:
        """The DNSSEC-signed NTP domains (the paper found exactly one)."""
        return [r.domain for r in self.ntp_domains() if r.supports_dnssec]


class FragmentationScan:
    """Runs the PMTUD probing methodology over a nameserver population."""

    def __init__(self, nameservers: list[NameserverSpec]) -> None:
        self.nameservers = nameservers

    @staticmethod
    def probe(spec: NameserverSpec) -> DomainScanResult:
        """Model one PMTUD probe against a nameserver.

        A nameserver that honours the spoofed ICMP fragmentation-needed
        message emits fragments no larger than its ``min_fragment_size``; one
        that ignores PMTUD never fragments, regardless of the advertised MTU.
        """
        return DomainScanResult(
            domain=spec.domain,
            supports_dnssec=spec.supports_dnssec,
            emits_fragments=spec.honors_pmtud,
            min_fragment_size=spec.min_fragment_size if spec.honors_pmtud else 1500,
            is_ntp_domain=spec.is_ntp_domain,
        )

    def run(self) -> FragmentationScanReport:
        """Probe every nameserver and aggregate."""
        results = [self.probe(spec) for spec in self.nameservers]
        return FragmentationScanReport(
            domains_scanned=len(results),
            fragmenting_no_dnssec=sum(1 for r in results if r.attackable),
            dnssec_signed=sum(1 for r in results if r.supports_dnssec),
            results=results,
        )

    def scan_pool_nameservers(self, nameservers: list[NameserverSpec] | None = None) -> dict:
        """The section VII-B sub-study on the pool.ntp.org nameservers.

        Probes the given nameservers (defaulting to the ``pool.ntp.org``
        entries of this scan's population) and returns the counts the paper
        reports: how many fragment to 548 bytes or below and how many serve a
        DNSSEC-signed zone (the paper found 16 of 30, and none, respectively).
        """
        chosen = nameservers or [s for s in self.nameservers if s.domain == "pool.ntp.org"]
        results = [self.probe(spec) for spec in chosen]
        fragmenting = sum(
            1
            for r in results
            if r.emits_fragments and r.min_fragment_size <= POOL_FRAGMENT_THRESHOLD
        )
        return {
            "nameservers": len(results),
            "fragment_below_548": fragmenting,
            "dnssec_signed": sum(1 for r in results if r.supports_dnssec),
        }


def fragment_size_cdf(
    report: FragmentationScanReport,
    mtu_steps: tuple[int, ...] = FIGURE5_MTU_STEPS,
) -> list[tuple[int, float]]:
    """The cumulative distribution plotted in Figure 5.

    For each MTU step, the fraction of attackable (fragmenting, unsigned)
    domains whose nameservers fragment down to that size or smaller.
    """
    return [(size, report.fraction_fragmenting_to(size)) for size in mtu_steps]

