"""The DNS poisoning attack against Chronos (paper section VI-C, Figure 4).

Chronos builds its server pool from 24 hourly DNS lookups; each honest lookup
contributes 4 pool addresses.  The attack needs to control more than two
thirds of the generated pool, and it achieves that with a *single* successful
poisoning:

* the poisoned response carries as many attacker addresses as fit in one
  unfragmented UDP response — up to 89 for ``pool.ntp.org`` — and
* a TTL longer than the remaining generation period, so every subsequent
  hourly lookup is answered from cache with the same attacker records,
  freezing the pool's honest fraction at whatever it was when the poisoning
  landed.

If the poisoning lands after ``N`` honest lookups the pool ends up with
``4N`` honest and 89 attacker addresses; the 2/3 requirement
``2/3 * (89 + 4N) <= 89`` gives ``N <= 11``: the attacker has 12 opportunities
(one per hour) in the 24-hour window, which is *more* chances than a plain
NTP client's single boot-time lookup offers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.attacker import Attacker
from repro.dns.message import DNSMessage
from repro.dns.records import a_record
from repro.dns.resolver import RecursiveResolver
from repro.netsim.simulator import Simulator
from repro.ntp.chronos.client import ChronosClient
from repro.ntp.chronos.selection import minimum_attacker_fraction_to_shift

#: Addresses the paper states fit into a single non-fragmented UDP response.
PAPER_MAX_ADDRESSES_PER_RESPONSE = 89
#: Addresses per honest pool.ntp.org response.
HONEST_ADDRESSES_PER_LOOKUP = 4
#: Lookups in the Chronos pool-generation period.
TOTAL_POOL_LOOKUPS = 24


def max_addresses_in_response(
    qname: str = "pool.ntp.org",
    mtu: int = 1500,
    edns_opt_size: int = 11,
) -> int:
    """How many A records fit in one unfragmented UDP response.

    With name compression every additional A record costs 16 bytes; the
    response must fit in ``mtu`` minus the IPv4 and UDP headers, and an EDNS0
    OPT record occupies ``edns_opt_size`` bytes of the additional section.
    The defaults give 89, matching the figure quoted in the paper.
    """
    payload_limit = mtu - 20 - 8
    base = len(DNSMessage.query(qname).encode()) + edns_opt_size
    per_record = 2 + 10 + 4
    return max(0, (payload_limit - base) // per_record)


def addresses_needed_to_dominate(honest_lookups_done: int) -> int:
    """Minimum attacker addresses for >2/3 control after ``N`` honest lookups."""
    honest = HONEST_ADDRESSES_PER_LOOKUP * honest_lookups_done
    # Need attacker / (attacker + honest) >= 2/3  =>  attacker >= 2 * honest.
    return 2 * honest


def max_honest_lookups_tolerated(
    injected_addresses: int = PAPER_MAX_ADDRESSES_PER_RESPONSE,
) -> int:
    """The largest ``N`` for which the attack still succeeds (paper: 11)."""
    # 2/3 * (injected + 4N) <= injected  =>  N <= injected / 8.
    return math.floor(injected_addresses / (2 * HONEST_ADDRESSES_PER_LOOKUP))


def attack_windows(injected_addresses: int = PAPER_MAX_ADDRESSES_PER_RESPONSE) -> int:
    """Number of hourly opportunities the attacker has in the 24 h period."""
    return max_honest_lookups_tolerated(injected_addresses) + 1


@dataclass
class ChronosAttackResult:
    """Outcome of one Chronos attack experiment."""

    poisoning_lookup_index: int
    injected_addresses: int
    honest_addresses_in_pool: int
    attacker_addresses_in_pool: int
    attacker_fraction: float
    pool_generation_ended_early: bool
    clock_shift_achieved: float
    target_shift: float

    @property
    def attacker_controls_pool(self) -> bool:
        """True when the attacker crossed Chronos' 2/3 security bound."""
        return self.attacker_fraction > minimum_attacker_fraction_to_shift()

    @property
    def success(self) -> bool:
        """The attack succeeds when the victim's clock reached the target shift."""
        return abs(self.clock_shift_achieved - self.target_shift) <= max(
            1.0, abs(self.target_shift) * 0.1
        )


@dataclass
class ChronosAttack:
    """Poison a Chronos client's pool generation through its DNS resolver."""

    attacker: Attacker
    simulator: Simulator
    resolver: RecursiveResolver
    victim: ChronosClient
    qname: str = "pool.ntp.org"
    injected_addresses: int = PAPER_MAX_ADDRESSES_PER_RESPONSE
    poisoned_ttl: int = 48 * 3600
    _injected: list[str] = field(default_factory=list)

    def poison_after_lookups(self, honest_lookups: int) -> None:
        """Schedule the poisoning to land after ``honest_lookups`` hourly lookups.

        The poisoning itself is modelled as a successful cache injection (the
        fragmentation primitive is evaluated separately); what matters for
        the Chronos analysis is *when* it lands and *how many* addresses and
        how much TTL it carries.
        """
        interval = self.victim.config.pool_generation.lookup_interval
        delay = honest_lookups * interval + interval / 2.0
        self.simulator.schedule(delay, self._inject, label="chronos-poisoning")

    def _inject(self) -> None:
        count = min(self.injected_addresses, len(self.attacker.address_pool))
        addresses = self.attacker.redirect_addresses(count)
        self._injected = addresses
        records = [
            a_record(self.qname, address, ttl=self.poisoned_ttl) for address in addresses
        ]
        self.resolver.cache.store(records, self.simulator.now)
        # Every injected address must answer NTP queries with shifted time,
        # otherwise Chronos would simply ignore the silent servers.
        for address in addresses:
            if address not in self.attacker.ntp_servers:
                self.attacker.add_ntp_server(address)

    def run(
        self,
        poison_after_lookups: int,
        observe_rounds: int = 4,
    ) -> ChronosAttackResult:
        """Run pool generation plus a few Chronos polling rounds and report."""
        self.victim.start()
        self.poison_after_lookups(poison_after_lookups)
        generation = (
            self.victim.config.pool_generation.lookup_interval
            * self.victim.config.pool_generation.total_lookups
        )
        observation = observe_rounds * self.victim.config.poll_interval + 120.0
        self.simulator.run_for(generation + observation)

        pool = self.victim.pool()
        attacker_addresses = pool & self.attacker.controlled_addresses
        honest_addresses = pool - self.attacker.controlled_addresses
        counts = self.victim.pool_generator.state.per_lookup_counts
        # The first lookup after the poisoning pulls the attacker's records
        # into the pool; every later lookup is answered from cache and adds
        # nothing — that is what "the pool-generation process ends early"
        # means in section VI-C.
        ended_early = bool(counts) and all(
            c == 0 for c in counts[poison_after_lookups + 2 :]
        )
        return ChronosAttackResult(
            poisoning_lookup_index=poison_after_lookups,
            injected_addresses=len(self._injected),
            honest_addresses_in_pool=len(honest_addresses),
            attacker_addresses_in_pool=len(attacker_addresses),
            attacker_fraction=self.victim.attacker_fraction(self.attacker.controlled_addresses),
            pool_generation_ended_early=ended_early,
            clock_shift_achieved=self.victim.clock_error(),
            target_shift=self.attacker.resources.time_shift,
        )
