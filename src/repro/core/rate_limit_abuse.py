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
queries per campaign — so the packets are crafted without the generic
UDP-encode tower: the mode 3 wire payload and its checksum word sum are
memoised per burst instant (every active campaign fires at the same
simulated time), and the per-server checksum is assembled arithmetically
from cached address word sums.  The crafted bytes are pinned
byte-identical to ``encode_udp`` by property tests.

Two scheduling shapes are supported, both riding the burst engine:

* **per-campaign cohorts** (default): campaigns started by one
  ``target()`` / ``target_many()`` call form a *cohort* that keeps its own
  cadence — every ``query_interval`` the whole cohort fires as one burst
  heap entry (:meth:`repro.netsim.simulator.Simulator.post_burst_entry`)
  whose flat loop crafts one spoofed query per active member and hands
  the spray to :meth:`~repro.netsim.network.Network.transmit_burst`.
  This is *event-for-event equivalent* to the original per-campaign
  self-rescheduling loop — the cohort entry consumes one sequence number
  and counts one processed event per member, members fire in start
  order, and cohorts started at different instants never merge — so the
  golden fixed-seed results (event counts included) stay bit-identical
  while a 46-server round costs two heap entries instead of 92.
* **batched rounds** (``batched=True``): one shared round grid for all
  campaigns; a campaign started *mid-interval* is folded onto the grid,
  so its first gap is shorter than ``query_interval`` — faster than
  per-campaign mode, never slower, but not query-for-query identical,
  which is why batching stays opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.attacker import Attacker
from repro.netsim.packet import IPProtocol, IPv4Packet
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
_UDP_PROTOCOL = IPProtocol.UDP


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
    batched:
        Opt into batched rounds: one simulator event per interval sends the
        whole burst of spoofed queries (one per active campaign) through
        :meth:`~repro.core.attacker.Attacker.inject_burst`.  Identical
        server-side effect for campaigns started together; staggered
        starts are folded onto the shared round grid (see module doc).
    """

    def __init__(
        self,
        attacker: Attacker,
        simulator: Simulator,
        victim_ip: str,
        query_interval: float = 2.0,
        batched: bool = False,
    ) -> None:
        if query_interval < 0:
            # Validated here because the send loop schedules with an inlined
            # Simulator.post, skipping post()'s own causality check.
            raise ValueError(f"query_interval must be >= 0, got {query_interval}")
        self.attacker = attacker
        self.simulator = simulator
        self.victim_ip = victim_ip
        self.query_interval = query_interval
        self.batched = batched
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
        self._round_scheduled = False

    # -------------------------------------------------------------- control
    def target(self, server_ip: str) -> RemovalCampaign:
        """Start (or return the existing) campaign against one server."""
        if server_ip in self.campaigns and self.campaigns[server_ip].active:
            return self.campaigns[server_ip]
        campaign = self._new_campaign(server_ip)
        if self.batched:
            self._send_round_for([campaign])
            if not self._round_scheduled:
                self._round_scheduled = True
                self.simulator.post(self.query_interval, self._send_round)
        else:
            cohort = [campaign]
            self._send_cohort(cohort)
            self._schedule_cohort(cohort)
        return campaign

    def target_many(self, server_ips: list[str]) -> list[RemovalCampaign]:
        """Start campaigns against a whole list of servers (scenario P1).

        Campaigns started here form one *cohort*: every round is a single
        burst heap entry and one batched spray instead of one event and
        one transmit per server (see the module docstring for the
        equivalence argument).
        """
        if self.batched:
            return [self.target(ip) for ip in server_ips]
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

    def active_targets(self) -> list[str]:
        """Servers currently being kept in the rate-limited state."""
        return [ip for ip, campaign in self.campaigns.items() if campaign.active]

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
        """Craft and inject one spoofed query per campaign as one spray.

        The flat loop the burst engine buys: the wire memo is refreshed
        once, the counters bumped once, and the whole spray goes through
        :meth:`~repro.netsim.network.Network.transmit_burst` — one heap
        entry, one vectorised checksum verify on delivery.  Craft order is
        campaign order, so delivery order, loss draws and IPID usage match
        the old query-at-a-time loop exactly.
        """
        started = perf_counter() if STAGES.enabled else 0.0
        now = self.simulator._now  # slot read; fires tens of thousands of times
        if now != self._wire_time:
            self._query_payload(now)
        # Inlined _craft_query (which stays the reference implementation,
        # pinned byte-identical to encode_udp by the crafting property
        # test; a drifting copy here fails the golden determinism test the
        # moment a checksum stops verifying): one method frame per query is
        # measurable over tens of thousands of crafts.
        wire = self._wire
        wire_sum = self._wire_sum
        victim_ip = self.victim_ip
        pack = _PACK_UDP_HEADER
        new_packet = IPv4Packet.__new__
        packet_cls = IPv4Packet
        packets = []
        append = packets.append
        for campaign in campaigns:
            folded = (campaign.base_sum + wire_sum) % 0xFFFF
            checksum = ~(folded if folded else 0xFFFF) & 0xFFFF
            payload = (
                pack(
                    NTP_PORT,
                    NTP_PORT,
                    _QUERY_UDP_LENGTH,
                    checksum if checksum else 0xFFFF,
                )
                + wire
            )
            # Inlined IPv4Packet.udp (slot-for-slot): even the fast
            # constructor's call frame shows up over a whole campaign.
            packet = new_packet(packet_cls)
            packet.src = victim_ip
            packet.dst = campaign.server_ip
            packet.protocol = _UDP_PROTOCOL
            packet.payload = payload
            packet.ipid = campaign.queries_sent & 0xFFFF
            packet.ttl = 64
            packet.dont_fragment = False
            packet.more_fragments = False
            packet.fragment_offset = 0
            # The spoofed tag rides the fresh metadata dict directly,
            # replacing Network.inject's setdefault.
            packet.metadata = {"spoofed": True}
            campaign.queries_sent += 1
            append(packet)
        count = len(packets)
        self.stats.spoofed_queries_sent += count
        stats = self._attacker_stats
        stats.spoofed_ntp_queries_sent += count
        stats.packets_injected += count
        self._network.transmit_burst(packets)
        if started:
            # Driver-side attribution (see repro.perf.DRIVER_STAGES): the
            # whole craft-and-spray window is codec-free, so the bucket is
            # disjoint from decode/encode and the delivery pipeline (which
            # runs later, at heap-drain time).
            STAGES.add("campaign_send", perf_counter() - started)

    # ------------------------------------------------------- batched rounds
    def _send_round(self) -> None:
        """One batched round: a burst of queries for every active campaign."""
        active = [c for c in self.campaigns.values() if c.active]
        if not active:
            self._round_scheduled = False
            return
        self._send_round_for(active)
        self.simulator.post(self.query_interval, self._send_round)

    def _send_round_for(self, campaigns: list[RemovalCampaign]) -> None:
        started = perf_counter() if STAGES.enabled else 0.0
        now = self.simulator.now
        if now != self._wire_time:
            self._query_payload(now)
        packets = []
        for campaign in campaigns:
            packets.append(self._craft_query(campaign))
            campaign.queries_sent += 1
        count = len(packets)
        self.stats.spoofed_queries_sent += count
        self.attacker.stats.spoofed_ntp_queries_sent += count
        self.attacker.inject_burst(packets)
        if started:
            STAGES.add("campaign_send", perf_counter() - started)
