"""The boot-time attack (paper section IV-A, Figure 2).

At boot an NTP client has no associations: whatever addresses its very first
DNS lookup returns become its time sources, and every client implementation
steps its clock from the first samples because the local clock may
legitimately be far off after a cold start.  The attack therefore reduces to
getting the malicious record into the resolver's cache *before* the client
boots (or before its next scheduled invocation, for cron-driven ntpdate).

Two ways of lining up the poisoning with the query are modelled:

* ``periodic-planting`` — keep a spoofed fragment parked in the resolver's
  defragmentation cache, refreshing it every 30 s, until the client's query
  happens to arrive (the paper's low-volume default: at most
  ``150 s / 30 s = 5`` fragments per TTL window),
* ``predicted-query`` — the experiment supplies the boot time, standing in
  for side-channel prediction of the query.

The paper's third way, making a system that shares the resolver issue the
query, is not modelled: no result depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.attacker import Attacker
from repro.core.fragment_attack import DNSFragmentPoisoner, PoisoningOutcome, PoisoningPlan
from repro.dns.resolver import RecursiveResolver
from repro.netsim.simulator import Simulator
from repro.ntp.clients.base import BaseNTPClient


@dataclass
class BootTimeAttackResult:
    """Outcome of one boot-time attack experiment."""

    poisoned: bool
    client_used_attacker_server: bool
    clock_shift_achieved: float
    target_shift: float
    poisoning_outcome: Optional[PoisoningOutcome] = None
    time_to_shift: Optional[float] = None

    @property
    def success(self) -> bool:
        """The attack counts as successful when the clock moved to the target."""
        return (
            self.client_used_attacker_server
            and abs(self.clock_shift_achieved - self.target_shift)
            <= max(1.0, abs(self.target_shift) * 0.1)
        )


@dataclass
class BootTimeAttack:
    """Orchestrates a boot-time attack against one client behind one resolver."""

    attacker: Attacker
    simulator: Simulator
    resolver: RecursiveResolver
    nameserver_ip: str
    qname: str = "pool.ntp.org"
    target_mtu: int = 68
    poisoning_plan_overrides: dict = field(default_factory=dict)
    _poisoner: Optional[DNSFragmentPoisoner] = None
    _outcome: Optional[PoisoningOutcome] = None

    def launch_poisoning(self) -> DNSFragmentPoisoner:
        """Start the poisoning campaign against the resolver."""
        plan = PoisoningPlan(
            resolver_ip=self.resolver.ip,
            nameserver_ip=self.nameserver_ip,
            qname=self.qname,
            malicious_addresses=self.attacker.redirect_addresses(4),
            target_mtu=self.target_mtu,
            **self.poisoning_plan_overrides,
        )
        self._poisoner = DNSFragmentPoisoner(
            self.attacker,
            self.simulator,
            plan,
            success_check=lambda: self.resolver.is_poisoned(
                self.qname, self.attacker.controlled_addresses
            ),
            on_finished=self._record_outcome,
        )
        self._poisoner.start()
        return self._poisoner

    def _record_outcome(self, outcome: PoisoningOutcome) -> None:
        self._outcome = outcome

    def evaluate(self, client: BaseNTPClient, observation_period: float = 600.0) -> BootTimeAttackResult:
        """Boot ``client`` now and measure whether it adopts the shifted time.

        The caller is responsible for having run the poisoning first (or for
        scheduling the boot during the campaign); this method only boots the
        client, runs the simulation forward and reports the ground truth.
        """
        target_shift = self.attacker.resources.time_shift
        client.start()
        self.simulator.run_for(observation_period)
        if self._poisoner is not None and not self._poisoner.finished:
            self._poisoner.stop()
        used_attacker = any(
            ip in self.attacker.controlled_addresses for ip in client.usable_server_ips()
        )
        shift = client.clock_error()
        time_to_shift = None
        step_times = [a.true_time for a in client.clock.adjustments if a.stepped]
        if step_times:
            time_to_shift = step_times[0] - (client.booted_at or 0.0)
        return BootTimeAttackResult(
            poisoned=self.resolver.is_poisoned(self.qname, self.attacker.controlled_addresses)
            or used_attacker,
            client_used_attacker_server=used_attacker,
            clock_shift_achieved=shift,
            target_shift=target_shift,
            poisoning_outcome=self._outcome,
            time_to_shift=time_to_shift,
        )
