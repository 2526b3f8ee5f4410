"""The run-time attack (paper section IV-B, Figure 3; evaluated in Table II).

A running NTP client already holds associations to real servers, so a
poisoned DNS cache alone changes nothing.  The attack therefore combines two
ingredients:

1. **Poison the resolver's cache** for the pool domain (either with the
   fragmentation primitive of section III, or — as in the paper's own lab
   evaluation of the clients — with a resolver that is reconfigured/poisoned
   directly, since the poisoning step is evaluated separately).
2. **Remove the victim's existing associations** by keeping its servers
   rate-limiting it (:mod:`repro.core.rate_limit_abuse`).  Once enough
   associations die, the client issues a new DNS lookup, receives the
   attacker's addresses from the poisoned cache, and adopts the attacker's
   time.

Two knowledge scenarios from the paper's probability analysis are supported:

* **P1** — the attacker knows (or enumerates) the victim's upstream servers
  in advance and attacks all of them concurrently.
* **P2** — the attacker discovers the upstream servers one at a time through
  the victim's reference-id leak, so removals happen sequentially and the
  attack takes correspondingly longer (47 vs 17 minutes for ntpd in the
  paper's lab).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.core.attacker import Attacker
from repro.core.rate_limit_abuse import AssociationRemover
from repro.core.server_discovery import discover_via_refid_leak
from repro.dns.records import a_record
from repro.dns.resolver import RecursiveResolver
from repro.netsim.simulator import Simulator
from repro.ntp.clients.base import BaseNTPClient
from repro.perf import STAGES, perf_counter


class RunTimeScenario(Enum):
    """Attacker knowledge about the victim's upstream servers."""

    P1_KNOWN_SERVERS = "P1"
    P2_REFID_DISCOVERY = "P2"


@dataclass
class RunTimeAttackResult:
    """Outcome of one run-time attack experiment."""

    scenario: RunTimeScenario
    client_name: str
    success: bool
    attack_duration: Optional[float]
    target_shift: float
    clock_shift_achieved: float
    associations_removed: int
    runtime_dns_lookups: int
    spoofed_queries_sent: int

    @property
    def attack_duration_minutes(self) -> Optional[float]:
        """Duration in minutes, the unit used by Table II."""
        if self.attack_duration is None:
            return None
        return self.attack_duration / 60.0


@dataclass
class RunTimeAttack:
    """Orchestrates a run-time attack against one victim client."""

    attacker: Attacker
    simulator: Simulator
    resolver: RecursiveResolver
    victim: BaseNTPClient
    scenario: RunTimeScenario = RunTimeScenario.P1_KNOWN_SERVERS
    #: Servers the attacker will keep rate-limiting in scenario P1 (normally
    #: the enumerated pool list or the victim's configured servers).
    known_server_list: list[str] = field(default_factory=list)
    #: TTL of the directly planted records.  It must outlive the association
    #: removal phase (slow clients take over an hour), and a real attacker
    #: would simply re-poison; a day keeps the model simple.
    poisoned_ttl: int = 86400
    refid_probe_interval: float = 32.0
    check_interval: float = 30.0
    max_duration: float = 3600.0 * 3
    query_interval: float = 2.0
    remover: Optional[AssociationRemover] = None
    _started_at: float = 0.0
    _finished: bool = False
    _result: Optional[RunTimeAttackResult] = None
    _stop_refid: Optional[object] = None

    # ------------------------------------------------------------- poisoning
    def poison_resolver_directly(self) -> None:
        """Plant the malicious pool records straight into the resolver cache.

        This mirrors the paper's client evaluation setup (section V-A2): the
        clients were tested against "a DNS resolver reconfigured after the
        clients had done their initial boot-time DNS lookups", because the
        cache-poisoning step itself is evaluated separately.  The end-to-end
        fragmentation path is exercised by :class:`BootTimeAttack` and the
        poisoning benchmarks.
        """
        domains = set(self.victim.config.pool_domains)
        records = []
        for domain in domains:
            for address in self.attacker.redirect_addresses(4):
                records.append(a_record(domain, address, ttl=self.poisoned_ttl))
        self.resolver.cache.store(records, self.simulator.now)

    # ------------------------------------------------------------ execution
    def start(self) -> None:
        """Begin the association-removal phase of the attack."""
        self._started_at = self.simulator.now
        self.remover = AssociationRemover(
            self.attacker,
            self.simulator,
            victim_ip=self.victim.host.ip,
            query_interval=self.query_interval,
        )
        if self.scenario is RunTimeScenario.P1_KNOWN_SERVERS:
            targets = self.known_server_list or list(self.victim.usable_server_ips())
            self.remover.target_many([t for t in targets if not self.attacker.owns(t)])
        else:
            self._stop_refid = discover_via_refid_leak(
                self.attacker,
                self.simulator,
                victim_ip=self.victim.host.ip,
                on_peer=self._on_discovered_peer,
                probe_interval=self.refid_probe_interval,
            )
        self.simulator.schedule(self.check_interval, self._check_progress, label="runtime-check")

    def _on_discovered_peer(self, peer_ip: str) -> None:
        if self.remover is not None and not self.attacker.owns(peer_ip):
            self.remover.target(peer_ip)

    def _check_progress(self) -> None:
        started = perf_counter() if STAGES.enabled else 0.0
        try:
            if self._finished:
                return
            elapsed = self.simulator.now - self._started_at
            shift = self.victim.clock_error()
            target = self.attacker.resources.time_shift
            if abs(shift - target) <= max(1.0, abs(target) * 0.1):
                self._finish(success=True, duration=elapsed)
                return
            if elapsed >= self.max_duration:
                self._finish(success=False, duration=None)
                return
            self.simulator.schedule(
                self.check_interval, self._check_progress, label="runtime-check"
            )
        finally:
            if started:
                STAGES.add("progress_check", perf_counter() - started)

    def _finish(self, success: bool, duration: Optional[float]) -> None:
        self._finished = True
        if self.remover is not None:
            self.remover.stop()
        if callable(self._stop_refid):
            self._stop_refid()
        self._result = RunTimeAttackResult(
            scenario=self.scenario,
            client_name=self.victim.client_name,
            success=success,
            attack_duration=duration,
            target_shift=self.attacker.resources.time_shift,
            clock_shift_achieved=self.victim.clock_error(),
            associations_removed=self.victim.stats.associations_removed,
            runtime_dns_lookups=self.victim.stats.runtime_dns_lookups,
            spoofed_queries_sent=self.remover.stats.spoofed_queries_sent
            if self.remover
            else 0,
        )

    # ------------------------------------------------------------ interface
    def run(self, poison_first: bool = True) -> RunTimeAttackResult:
        """Run the attack to completion (or to ``max_duration``) and report.

        The victim client must already be started and synchronised; callers
        normally run the simulation for a while before invoking this.
        """
        if poison_first:
            self.poison_resolver_directly()
        self.start()
        # Run until the attack resolves (success or timeout).
        self.simulator.run_for(self.max_duration + 2 * self.check_interval)
        return self.conclude()

    def conclude(self) -> RunTimeAttackResult:
        """The attack's result; an attack still unresolved is finished as failed.

        Callers that advance the simulator themselves (a fleet runs many
        attacks on one heap, possibly cut short) read every result here.
        """
        if self._result is None:
            self._finish(success=False, duration=None)
        return self._result
