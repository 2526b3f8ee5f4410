"""Removing NTP associations by abusing server-side rate limiting (section IV-B2).

NTP servers identify clients by source IP address only, so an off-path
attacker can impersonate the victim client towards any server simply by
spoofing the source address of mode 3 queries.  Sending such queries faster
than the server's rate-limit budget pushes the *victim* into the limited
state: the server stops answering the victim's own (slow, legitimate) polls,
the victim's reachability register for that server drains, and the client
eventually declares the association dead and goes back to DNS for a
replacement — straight into the poisoned cache.

Compared to a denial-of-service attack on the server this needs a trickle of
packets (one spoofed query every couple of seconds per server) and harms
nobody else: the server keeps serving all other clients.

The send loop is a simulator hot path — tens of thousands of spoofed
queries per campaign — so a round is crafted without the generic
UDP-encode tower, without header bytes and without packet objects: the
mode 3 wire payload and its checksum word sum are memoised per round
instant (every active campaign fires at the same simulated time), each
server's checksum is assembled arithmetically from cached address word
sums, and the round leaves as that one payload plus one checksum per
server.  The crafted datagrams (header rebuilt from those fields) are
pinned byte-identical to ``encode_udp`` by property tests.

Campaigns started by one ``target()`` / ``target_many()`` call form a
*cohort* that keeps its own cadence: every ``query_interval`` the whole
cohort fires as one burst heap entry
(:meth:`repro.netsim.simulator.Simulator.post_burst_entry`) whose flat loop
crafts one spoofed datagram per active member and hands the round to
:meth:`~repro.netsim.network.Network.transmit_spray` as one source's spray.
On a uniform network plan (every server routed, lossless, fault-free, one
latency) the spray travels as a single heap entry of structured datagrams
sharing the round's payload, whose checksum fold the drain computes once; any
other plan, or an attached capture, makes the network materialise the
spoofed packets and inject them one by one instead.  Either
way the round is *event-for-event equivalent* to one self-rescheduling
event per campaign: the cohort entry consumes one sequence number and
counts one processed event per member, members fire in start order, and
cohorts started at different instants never merge — so the golden
fixed-seed results (event counts included) stay bit-identical while a
46-server round costs two heap entries instead of 92.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.attacker import Attacker
from repro.netsim.packet import IPv4Packet
from repro.netsim.simulator import Simulator
from repro.perf import STAGES, perf_counter
from repro.netsim.udp import (
    UDP_HEADER_LEN,
    _UDP_HEADER,
    _address_word_sum,
    payload_word_sum,
)
from repro.ntp.packet import NTPPacket, NTP_PORT

#: UDP length field of a spoofed mode 3 query (8-byte header + 48-byte NTP).
_QUERY_UDP_LENGTH = UDP_HEADER_LEN + 48
_PACK_UDP_HEADER = _UDP_HEADER.pack


@dataclass(slots=True)
class RemovalCampaign:
    """State of the spoofing campaign against one (victim, server) pair."""

    server_ip: str
    victim_ip: str
    started_at: float
    queries_sent: int = 0
    active: bool = True
    #: The constant part of the crafted query's checksum word sum — victim
    #: and server address sums, protocol word, UDP length (twice) and both
    #: ports.  Derived from the addresses at construction; only the
    #: per-burst payload sum is added per crafted query.
    base_sum: int = field(init=False)

    def __post_init__(self) -> None:
        self.base_sum = (
            _address_word_sum(self.victim_ip)
            + _address_word_sum(self.server_ip)
            + 17
            + _QUERY_UDP_LENGTH
            + _QUERY_UDP_LENGTH
            + NTP_PORT
            + NTP_PORT
        )


@dataclass(slots=True)
class RemoverStats:
    """Aggregate counters for the association-removal activity."""

    campaigns_started: int = 0
    campaigns_stopped: int = 0
    spoofed_queries_sent: int = 0


class _CohortRound:
    """One scheduled round of a campaign cohort (a simulator burst entry).

    ``count`` equals the cohort size at scheduling time, so the entry
    consumes one sequence number and counts one processed event per member
    — exactly what the old one-event-per-campaign rescheduling produced.
    Members that went inactive since the round was scheduled still count
    (their singular event would have fired as a no-op) but are dropped
    from the next round, again matching the singular shape.
    """

    __slots__ = ("remover", "campaigns", "count")

    def __init__(self, remover: "AssociationRemover", campaigns: list) -> None:
        self.remover = remover
        self.campaigns = campaigns
        self.count = len(campaigns)

    def run(self) -> None:
        self.remover._fire_cohort(self.campaigns)


class AssociationRemover:
    """Keeps chosen NTP servers rate-limiting the victim client.

    Parameters
    ----------
    query_interval:
        Interval between spoofed queries per server.  It must stay below the
        server's average-interval budget (8 s for the reference
        implementation) so the victim remains limited; the default of 2 s
        keeps the overall attack volume at a fraction of a packet per second
        per server.
    """

    def __init__(
        self,
        attacker: Attacker,
        simulator: Simulator,
        victim_ip: str,
        query_interval: float = 2.0,
    ) -> None:
        if query_interval < 0:
            # Validated here because the send loop schedules with an inlined
            # Simulator.post, skipping post()'s own causality check.
            raise ValueError(f"query_interval must be >= 0, got {query_interval}")
        self.attacker = attacker
        self.simulator = simulator
        self.victim_ip = victim_ip
        self.query_interval = query_interval
        self.stats = RemoverStats()
        self.campaigns: dict[str, RemovalCampaign] = {}
        #: Hot-loop handles resolved once (the send loop runs per query).
        self._network = attacker.network
        self._attacker_stats = attacker.stats
        #: Burst-instant memo: every active campaign fires at the same
        #: simulated time, so the mode 3 payload (which embeds the transmit
        #: timestamp) and its checksum word sum are computed once per burst.
        self._wire_time: Optional[float] = None
        self._wire: bytes = b""
        self._wire_sum = 0

    # -------------------------------------------------------------- control
    def target(self, server_ip: str) -> RemovalCampaign:
        """Start (or return the existing) campaign against one server."""
        return self.target_many([server_ip])[0]

    def target_many(self, server_ips: list[str]) -> list[RemovalCampaign]:
        """Start campaigns against a whole list of servers (scenario P1).

        Campaigns started here form one *cohort*: every round is a single
        burst heap entry and one batched spray instead of one event and
        one transmit per server (see the module docstring for the
        equivalence argument).
        """
        campaigns: list[RemovalCampaign] = []
        cohort: list[RemovalCampaign] = []
        for server_ip in server_ips:
            existing = self.campaigns.get(server_ip)
            if existing is not None and existing.active:
                campaigns.append(existing)
                continue
            campaign = self._new_campaign(server_ip)
            campaigns.append(campaign)
            cohort.append(campaign)
        if cohort:
            self._send_cohort(cohort)
            self._schedule_cohort(cohort)
        return campaigns

    def _new_campaign(self, server_ip: str) -> RemovalCampaign:
        campaign = RemovalCampaign(
            server_ip=server_ip,
            victim_ip=self.victim_ip,
            started_at=self.simulator.now,
        )
        self.campaigns[server_ip] = campaign
        self.stats.campaigns_started += 1
        return campaign

    def stop(self, server_ip: Optional[str] = None) -> None:
        """Stop one campaign, or all campaigns."""
        targets = [server_ip] if server_ip else list(self.campaigns)
        for ip in targets:
            campaign = self.campaigns.get(ip)
            if campaign is not None and campaign.active:
                campaign.active = False
                self.stats.campaigns_stopped += 1

    # ------------------------------------------------------------- spoofing
    def _query_payload(self, now: float) -> None:
        """Refresh the per-burst mode 3 wire payload memo for time ``now``."""
        wire = NTPPacket.client_query_wire(now)
        self._wire = wire
        self._wire_sum = payload_word_sum(wire)
        self._wire_time = now

    def _craft_query(self, campaign: RemovalCampaign) -> IPv4Packet:
        """One spoofed query packet, byte-identical to the encode_udp path.

        The checksum is assembled from the per-burst payload sum and the
        campaign's precomputed constant word sum (``base_sum``); the fold
        deliberately inlines
        :func:`repro.netsim.udp.udp_checksum_from_sums` (the call frame is
        measurable over tens of thousands of queries).  Drift between this
        copy and the helper is caught by
        ``test_prop_batch_delivery.test_spoofed_query_crafting_matches_encode_udp``,
        which pins this method's output byte-identical to the generic
        ``encode_udp`` tower.
        """
        folded = (campaign.base_sum + self._wire_sum) % 0xFFFF
        checksum = ~(folded if folded else 0xFFFF) & 0xFFFF
        payload = (
            _PACK_UDP_HEADER(
                NTP_PORT, NTP_PORT, _QUERY_UDP_LENGTH, checksum if checksum else 0xFFFF
            )
            + self._wire
        )
        return IPv4Packet.udp(
            self.victim_ip, campaign.server_ip, payload, campaign.queries_sent & 0xFFFF
        )

    def _fire_cohort(self, campaigns: list) -> None:
        """One cohort round: spray the still-active members, reschedule them.

        The burst-entry callback for default-mode cohorts.  Inactive
        members are dropped here — their singular events would have fired
        as no-ops and not rescheduled, and the cohort entry already
        counted them — so a cohort shrinks exactly as the per-campaign
        chains would have.
        """
        active = [campaign for campaign in campaigns if campaign.active]
        if not active:
            return
        self._send_cohort(active)
        self._schedule_cohort(active)

    def _schedule_cohort(self, campaigns: list) -> None:
        """Queue the cohort's next round as one fire-and-forget heap entry."""
        if len(campaigns) == 1:
            # A one-member cohort degrades to the anonymous post the old
            # per-campaign loop pushed: same entry count, cheaper dispatch.
            self.simulator.post(self.query_interval, self._fire_cohort, campaigns)
        else:
            self.simulator.post_burst_entry(
                self.query_interval, _CohortRound(self, campaigns)
            )

    def _send_cohort(self, campaigns: list) -> None:
        """Checksum one spoofed query per campaign and spray them.

        The wire memo is refreshed once, the counters bumped once, and the
        round goes to :meth:`~repro.netsim.network.Network.transmit_spray`
        as ``(victim, servers, ports, payload, checksums, ipids)``: the
        round's one mode 3 payload and one checksum per server, no header
        packed.  Craft order is campaign order, so delivery order, loss
        draws and IPID usage match the old query-at-a-time loop exactly.
        """
        started = perf_counter() if STAGES.enabled else 0.0
        now = self.simulator._now  # slot read; fires tens of thousands of times
        if now != self._wire_time:
            self._query_payload(now)
        # The checksum of _craft_query (which stays the reference
        # implementation, pinned byte-identical to encode_udp by the
        # crafting property test), inlined: one method frame per query is
        # measurable over tens of thousands of crafts.  ``folded`` lies in
        # [0, 0xFFFE], where ``0xFFFF - folded`` equals the complement with
        # both RFC 768 special cases applied.
        wire_sum = self._wire_sum
        destinations = []
        checksums = []
        ipids = []
        for campaign in campaigns:
            checksums.append(0xFFFF - (campaign.base_sum + wire_sum) % 0xFFFF)
            destinations.append(campaign.server_ip)
            sent = campaign.queries_sent
            ipids.append(sent & 0xFFFF)
            campaign.queries_sent = sent + 1
        count = len(checksums)
        self.stats.spoofed_queries_sent += count
        stats = self._attacker_stats
        stats.spoofed_ntp_queries_sent += count
        stats.packets_injected += count
        self._network.transmit_spray(
            self.victim_ip,
            tuple(destinations),
            NTP_PORT,
            NTP_PORT,
            self._wire,
            checksums,
            ipids,
        )
        if started:
            # Driver-side attribution (the ``campaign_send`` stage): the
            # whole craft-and-spray window is codec-free, so the bucket is
            # disjoint from decode/encode and the delivery pipeline (which
            # runs later, at heap-drain time).
            STAGES.add("campaign_send", perf_counter() - started)
