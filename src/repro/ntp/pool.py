"""A synthetic ``pool.ntp.org`` population.

The paper's measurements (section VII-A) gathered 2432 pool servers by
querying the country zones repeatedly, probed each with 64 queries at one per
second, and found that roughly 38 % rate-limit (33 % announce it with a
Kiss-o'-Death first).  The population built here reproduces those marginals
as parameters: each synthetic server is a full :class:`~repro.ntp.server.NTPServer`
running on its own simulated host, so the same scanning methodology — and the
same run-time attack — can be executed against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.netsim.addresses import address_range
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator
from repro.ntp.clock import SystemClock
from repro.ntp.server import NTPServer, NTPServerConfig

#: Number of distinct pool servers the paper's country-zone scan gathered.
PAPER_POOL_SIZE = 2432
#: Fraction of pool servers that rate limit (stop responding), section VII-A.
PAPER_RATE_LIMIT_FRACTION = 0.38
#: Fraction of pool servers that send Kiss-o'-Death packets, section VII-A.
PAPER_KOD_FRACTION = 0.33
#: Fraction of pool servers with an open configuration interface, section IV-B2c.
PAPER_OPEN_CONFIG_FRACTION = 0.053


@dataclass
class PoolServerSpec:
    """Ground-truth description of one synthetic pool server."""

    address: str
    rate_limiting: bool
    sends_kod: bool
    #: Ground truth only (``open_config_fraction``): no simulated server
    #: answers mode 6/7 configuration queries.
    open_config: bool


@dataclass
class PoolPopulation:
    """The synthetic pool: server objects plus their ground-truth specs."""

    specs: list[PoolServerSpec] = field(default_factory=list)
    servers: dict[str, NTPServer] = field(default_factory=dict)

    @property
    def addresses(self) -> list[str]:
        """All pool server addresses."""
        return [spec.address for spec in self.specs]

    def rate_limiting_fraction(self) -> float:
        """Ground-truth fraction of servers that rate limit."""
        if not self.specs:
            return 0.0
        return sum(spec.rate_limiting for spec in self.specs) / len(self.specs)

    def kod_fraction(self) -> float:
        """Ground-truth fraction of servers that send KoD packets."""
        if not self.specs:
            return 0.0
        return sum(spec.sends_kod for spec in self.specs) / len(self.specs)

    def open_config_fraction(self) -> float:
        """Ground-truth fraction of servers answering configuration queries."""
        if not self.specs:
            return 0.0
        return sum(spec.open_config for spec in self.specs) / len(self.specs)


def build_pool_population(
    simulator: Simulator,
    network: Network,
    size: int = 256,
    rate_limit_fraction: float = PAPER_RATE_LIMIT_FRACTION,
    kod_fraction: float = PAPER_KOD_FRACTION,
    open_config_fraction: float = PAPER_OPEN_CONFIG_FRACTION,
    base_address: str = "203.0.113.1",
    instantiate_servers: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> PoolPopulation:
    """Create a synthetic pool population.

    ``size`` defaults to a few hundred servers for unit tests; the
    measurement benchmarks use the paper's 2432.  ``instantiate_servers``
    can be disabled when only the ground-truth specs are needed (e.g. the
    purely analytic probability experiments).

    Servers that send KoD are a subset of the rate-limiting servers, as in
    the paper (a KoD is the announcement that rate limiting is imminent).
    """
    rng = rng or simulator.spawn_rng()
    addresses = address_range(base_address, size)
    rate_limit_count = int(round(size * rate_limit_fraction))
    kod_count = min(int(round(size * kod_fraction)), rate_limit_count)
    open_config_count = int(round(size * open_config_fraction))

    limiter_indices = set(
        int(i) for i in rng.choice(size, size=rate_limit_count, replace=False)
    )
    kod_indices = set(
        int(i)
        for i in rng.choice(sorted(limiter_indices), size=kod_count, replace=False)
    ) if rate_limit_count else set()
    open_config_indices = set(
        int(i) for i in rng.choice(size, size=open_config_count, replace=False)
    ) if open_config_count else set()

    population = PoolPopulation()
    for index, address in enumerate(addresses):
        spec = PoolServerSpec(
            address=address,
            rate_limiting=index in limiter_indices,
            sends_kod=index in kod_indices,
            open_config=index in open_config_indices,
        )
        population.specs.append(spec)
        if not instantiate_servers:
            continue
        host = network.add_host(f"pool-{index}", address)
        clock = SystemClock(
            offset=float(rng.normal(0.0, 0.005)), created_at=simulator.now
        )
        config = NTPServerConfig(
            stratum=2,
            rate_limiting=spec.rate_limiting,
            send_kod=spec.sends_kod,
            upstream_server="198.51.100.200",
        )
        population.servers[address] = NTPServer(
            host, simulator, clock=clock, config=config, name=f"pool-{index}"
        )
    return population
