"""Shared machinery for every NTP client model.

The base client implements the life cycle every implementation shares:

1. **Boot** — resolve the configured pool domain(s) through the system's DNS
   resolver and create associations to the returned addresses.  This lookup
   is the boot-time attack surface: if the resolver's cache is poisoned the
   client synchronises to the attacker from its very first sample.
2. **Polling** — send a mode 3 query to each usable association every poll
   interval, track reachability with ntpd's 8-bit shift register, and record
   offset samples from mode 4 responses.
3. **Discipline** — combine samples (median across associations for NTP,
   the single server for SNTP), slew small offsets, and *step* the clock
   only after a large offset persists for ``step_delay`` seconds (clients
   step immediately at boot, which is exactly why boot-time attacks are so
   effective).
4. **Replacement** — when a server stops answering for ``unreachable_after``
   consecutive polls it is declared unreachable; clients that support
   run-time DNS lookups then re-query the pool domain, which is the hook the
   run-time attack exploits after poisoning the resolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.dns.stub import ResolutionResult, StubResolver
from repro.netsim.host import Host
from repro.netsim.simulator import Simulator
from repro.ntp.association import Association, AssociationState
from repro.ntp.clock import SystemClock
from repro.ntp.packet import NTP_PACKET_LEN, NTP_PORT, NTPPacket
from repro.ntp.timestamps import unix_from_wire


@dataclass
class NTPClientConfig:
    """Behavioural parameters of a client model.

    The defaults are ntpd-like; each client model overrides what differs.
    Durations interact to produce the attack times of Table II: removing one
    association costs roughly ``unreachable_after * poll_interval`` seconds,
    and adopting the attacker's time costs roughly ``step_delay`` more.
    """

    pool_domains: list[str] = field(default_factory=lambda: ["pool.ntp.org"])
    desired_associations: int = 4
    min_associations: int = 1
    max_associations: int = 10
    poll_interval: float = 64.0
    poll_jitter: float = 0.05
    response_timeout: float = 2.0
    unreachable_after: int = 8
    remove_unreachable: bool = True
    runtime_dns: bool = True
    sntp: bool = False
    step_threshold: float = 0.128
    step_delay: float = 300.0
    min_step_samples: int = 4
    boot_step_immediately: bool = True
    panic_threshold: Optional[float] = None
    panic_at_boot: bool = False
    dns_cached_servers: int = 0
    act_as_server: bool = False
    slew_gain: float = 0.5


@dataclass
class ClientStats:
    """Counters describing what the client did (used by the experiments)."""

    boot_dns_lookups: int = 0
    runtime_dns_lookups: int = 0
    polls_sent: int = 0
    responses_received: int = 0
    kods_received: int = 0
    associations_created: int = 0
    associations_removed: int = 0
    steps_applied: int = 0
    panics: int = 0


class BaseNTPClient:
    """Common implementation of the client models.

    Subclasses normally override only :meth:`default_config` and, where the
    real implementation behaves differently, the ``_on_unreachable`` or
    ``_runtime_lookup_domains`` hooks.
    """

    #: Name used in Table I.
    client_name = "generic"
    #: Fraction of pool.ntp.org clients using this implementation [Rytilahti et al.].
    pool_usage_share: Optional[float] = None
    #: Whether the implementation is vulnerable to the boot-time attack.
    supports_boot_time_attack = True
    #: Whether the implementation performs DNS lookups at run time.
    supports_runtime_attack = False

    def __init__(
        self,
        host: Host,
        simulator: Simulator,
        resolver_ip: str,
        config: Optional[NTPClientConfig] = None,
        initial_clock_offset: float = 0.0,
        name: str = "",
    ) -> None:
        self.host = host
        self.simulator = simulator
        self.config = config or self.default_config()
        self.name = name or f"{self.client_name}@{host.ip}"
        self.clock = SystemClock(offset=initial_clock_offset, created_at=simulator.now)
        self.stub = StubResolver(host, simulator, resolver_ip)
        self.stats = ClientStats()
        self.associations: dict[str, Association] = {}
        self.started = False
        self.booted_at: Optional[float] = None
        self._rng = simulator.spawn_rng()
        self._large_offset_since: Optional[float] = None
        self._large_offset_samples = 0
        self._cached_server_list: list[str] = []
        self._poll_event = None
        port = NTP_PORT if self.config.act_as_server else 0
        self.socket = host.bind(port, self._on_packet)
        #: Outstanding polls: server ip -> (poll time, the poll's 8 transmit
        #: timestamp bytes, which a genuine response echoes as its origin).
        self._pending: dict[str, tuple] = {}

    # ------------------------------------------------------------ overrides
    def _runtime_lookup_domains(self) -> list[str]:
        """Domains to query when a run-time DNS lookup is triggered."""
        return list(self.config.pool_domains)

    # ----------------------------------------------------------------- boot
    def start(self) -> None:
        """Boot the client: resolve the pool domains and begin polling."""
        if self.started:
            return
        self.started = True
        self.booted_at = self.simulator.now
        for domain in self.config.pool_domains:
            self.stats.boot_dns_lookups += 1
            self.stub.resolve(domain, lambda result, d=domain: self._on_dns_result(result, d, boot=True))
        # Every implementation takes its first samples shortly after boot
        # ("iburst"-style) rather than waiting a full poll interval; the
        # recurring schedule is set up by the first poll round itself.
        initial_delay = min(5.0, self.config.poll_interval)
        self._poll_event = self.simulator.schedule(
            initial_delay, self._poll_round, label=f"{self.name} first poll"
        )

    def stop(self) -> None:
        """Stop polling (used by one-shot clients and test teardown)."""
        if self._poll_event is not None:
            self._poll_event.cancel()
            self._poll_event = None
        self.started = False

    # ----------------------------------------------------------------- DNS
    def _on_dns_result(self, result: ResolutionResult, domain: str, boot: bool) -> None:
        if not result.ok:
            return
        if self.config.dns_cached_servers > 0:
            self._cached_server_list = list(
                result.addresses[: self.config.dns_cached_servers]
            )
        self._add_servers(result.addresses, domain)

    def _add_servers(self, addresses: list[str], domain: str) -> None:
        limit = self.config.max_associations
        target = self.config.desired_associations
        for address in addresses:
            if len(self._usable_associations()) >= target:
                break
            active_count = len(
                [
                    a
                    for a in self.associations.values()
                    if a.state is not AssociationState.REMOVED
                ]
            )
            if active_count >= limit and address not in self.associations:
                break
            if address in self.associations:
                existing = self.associations[address]
                if existing.state is AssociationState.REMOVED:
                    existing.state = AssociationState.ACTIVE
                    existing.consecutive_failures = 0
                continue
            self.associations[address] = Association(
                server_ip=address,
                source_domain=domain,
                created_at=self.simulator.now,
            )
            self.stats.associations_created += 1

    def trigger_runtime_dns(self) -> None:
        """Issue the run-time DNS lookups that replace lost servers."""
        if not self.config.runtime_dns:
            return
        for domain in self._runtime_lookup_domains():
            self.stats.runtime_dns_lookups += 1
            self.stub.resolve(
                domain, lambda result, d=domain: self._on_dns_result(result, d, boot=False)
            )

    # -------------------------------------------------------------- polling
    def _schedule_poll(self) -> None:
        jitter = float(self._rng.uniform(0, self.config.poll_interval * self.config.poll_jitter))
        self._poll_event = self.simulator.schedule(
            self.config.poll_interval + jitter, self._poll_round, label=f"{self.name} poll"
        )

    def _poll_round(self) -> None:
        if not self.started:
            return
        targets = self._poll_targets()
        for association in targets:
            self._send_poll(association)
        self._schedule_poll()

    def _poll_targets(self) -> list[Association]:
        usable = self._usable_associations()
        if self.config.sntp:
            return usable[:1]
        return usable

    def _send_poll(self, association: Association) -> None:
        association.polls_sent += 1
        self.stats.polls_sent += 1
        wire = NTPPacket.client_query(self.clock.time(self.simulator.now)).encode()
        poll_time = self.simulator.now
        self._pending[association.server_ip] = (poll_time, wire[40:48])
        self.socket.sendto(wire, association.server_ip, NTP_PORT)
        self.simulator.schedule(
            self.config.response_timeout,
            lambda ip=association.server_ip, at=poll_time: self._check_timeout(ip, at),
            label=f"{self.name} poll-timeout",
        )

    def _check_timeout(self, server_ip: str, poll_time: float) -> None:
        pending = self._pending.get(server_ip)
        if pending is None or pending[0] != poll_time:
            return
        del self._pending[server_ip]
        association = self.associations.get(server_ip)
        if association is None or not association.is_usable():
            return
        association.record_failure()
        self._after_failure(association)

    # ------------------------------------------------------------- receive
    def _on_packet(self, payload: bytes, src_ip: str, src_port: int) -> None:
        # Routes on the mode bits; the guards drop exactly the payloads
        # NTPPacket.decode() raises on (truncation, mode 0) and the modes
        # a client ignores.
        if len(payload) < NTP_PACKET_LEN:
            return
        mode_bits = payload[0] & 0x7
        if mode_bits == 3:  # NTPMode.CLIENT
            self._serve_time(payload, src_ip, src_port)
            return
        if mode_bits != 4:  # NTPMode.SERVER
            return
        association = self.associations.get(src_ip)
        pending = self._pending.get(src_ip)
        if association is None or pending is None or payload[24:32] != pending[1]:
            # Responses whose origin timestamp does not echo one of our own
            # outstanding queries are discarded (RFC 5905 packet sanity
            # checks), before any decode.  This is what makes the server's
            # replies to the attacker's *spoofed* queries harmless to the
            # client state, and cheap to throw away.
            return
        del self._pending[src_ip]
        packet = NTPPacket.decode(payload)
        if packet.is_kiss_of_death:
            self.stats.kods_received += 1
            association.record_kod()
            self._after_failure(association)
            return
        now = self.simulator.now
        transmit = packet.transmit_timestamp
        offset = unix_from_wire(transmit.seconds, transmit.fraction) - self.clock.time(now)
        association.record_success(offset)
        self.stats.responses_received += 1
        self._discipline()

    def _serve_time(self, query_wire: bytes, src_ip: str, src_port: int) -> None:
        """Answer a mode 3 query when acting as a server (refid leak)."""
        if not self.config.act_as_server:
            return
        peer = self.system_peer()
        response = NTPPacket.server_response_wire(
            query_wire,
            self.clock.time(self.simulator.now),
            stratum=3,
            reference_id=peer.server_ip if peer else "",
        )
        self.socket.sendto(response, src_ip, src_port)

    # ----------------------------------------------------------- discipline
    def _selected_offset(self) -> Optional[float]:
        candidates = [
            assoc.last_offset
            for assoc in self._usable_associations()
            if assoc.reachable and assoc.last_offset is not None
        ]
        if not candidates:
            return None
        if self.config.sntp:
            return candidates[0]
        ordered = sorted(candidates)
        middle = len(ordered) // 2
        if len(ordered) % 2 == 1:
            return ordered[middle]
        return (ordered[middle - 1] + ordered[middle]) / 2

    def _discipline(self) -> None:
        offset = self._selected_offset()
        if offset is None:
            return
        now = self.simulator.now
        if abs(offset) <= self.config.step_threshold:
            self._large_offset_since = None
            self._large_offset_samples = 0
            self.clock.slew(offset * self.config.slew_gain, now)
            return

        at_boot = self._in_boot_window()
        if self.config.panic_threshold is not None and abs(offset) > self.config.panic_threshold:
            if not at_boot or self.config.panic_at_boot:
                self.stats.panics += 1
                return

        if at_boot and self.config.boot_step_immediately:
            self._apply_step(offset, now)
            return

        if self._large_offset_since is None:
            self._large_offset_since = now
            self._large_offset_samples = 0
        self._large_offset_samples += 1
        persisted = now - self._large_offset_since
        if (
            persisted >= self.config.step_delay
            and self._large_offset_samples >= self.config.min_step_samples
        ):
            self._apply_step(offset, now)

    def _apply_step(self, offset: float, now: float) -> None:
        self.clock.step(offset, now)
        self.stats.steps_applied += 1
        self._large_offset_since = None
        self._large_offset_samples = 0

    def _in_boot_window(self) -> bool:
        if self.booted_at is None:
            return False
        return self.stats.steps_applied == 0 and self.stats.responses_received <= max(
            4, self.config.min_step_samples
        )

    # ------------------------------------------------------------ failures
    def _after_failure(self, association: Association) -> None:
        if association.consecutive_failures < self.config.unreachable_after:
            return
        if association.state is AssociationState.ACTIVE:
            association.state = AssociationState.UNREACHABLE
        self._on_unreachable(association)

    def _on_unreachable(self, association: Association) -> None:
        """Default reaction: drop the server and re-query DNS if we fell low."""
        if self.config.remove_unreachable:
            association.state = AssociationState.REMOVED
            self.stats.associations_removed += 1
        if (
            self.config.runtime_dns
            and len(self._usable_associations()) < self.config.min_associations
        ):
            self.trigger_runtime_dns()

    # ----------------------------------------------------------- inspection
    def _usable_associations(self) -> list[Association]:
        return [a for a in self.associations.values() if a.is_usable()]

    def usable_server_ips(self) -> list[str]:
        """Addresses of servers the client currently polls."""
        return [a.server_ip for a in self._usable_associations()]

    def system_peer(self) -> Optional[Association]:
        """The association currently driving the clock.

        Selection is sticky, as in ntpd: the current system peer keeps its
        role until it becomes unusable or unreachable, at which point the
        best remaining candidate takes over.  Stickiness matters for attack
        scenario P2 — the reference id leaks exactly one upstream server at a
        time, and the attacker only learns the next one after removing the
        current one.
        """
        current = getattr(self, "_system_peer_ip", None)
        if current is not None:
            association = self.associations.get(current)
            if (
                association is not None
                and association.is_usable()
                and association.reachable
                and association.last_offset is not None
            ):
                return association
        reachable = [
            a for a in self._usable_associations() if a.reachable and a.last_offset is not None
        ]
        if not reachable:
            self._system_peer_ip = None
            return None
        selected = min(reachable, key=lambda a: abs(a.last_offset or 0.0))
        self._system_peer_ip = selected.server_ip
        return selected

    def clock_error(self) -> float:
        """Signed clock error versus true (simulated) time, in seconds."""
        return self.clock.error(self.simulator.now)

    def synchronised_to(self, addresses: set[str]) -> bool:
        """True when every reachable usable server is in ``addresses``."""
        usable = [a.server_ip for a in self._usable_associations() if a.reachable]
        return bool(usable) and all(ip in addresses for ip in usable)

