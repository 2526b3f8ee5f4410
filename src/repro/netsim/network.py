"""The network fabric: hosts, links, delivery, and off-path injection.

The network delivers IPv4 packets between registered hosts with a per-link
latency and optional loss probability.  Two interfaces matter for the threat
model of the paper:

* :meth:`Network.inject` lets an *off-path* attacker put arbitrary packets —
  including packets with spoofed source addresses — onto the wire.  The
  attacker never receives a :class:`~repro.netsim.capture.PacketCapture`, so
  it cannot observe traffic between the victim resolver and the nameservers;
  everything it knows it must learn by querying the servers itself.
* :meth:`Network.attach_capture` gives tests (and explicit MitM baselines)
  visibility into delivered traffic.

Delivery runs through pipelines compiled per (src, dst) pair (see
:mod:`repro.netsim.datapath`): one dict hit yields the resolved latency,
loss probability, the destination host's flat deliver callable and the
pair's pseudo-header sum.  Every socket send is one
:meth:`Network.send_udp` frame: it checks the sender's path MTU (a larger
datagram goes to :meth:`~repro.netsim.host.Host.send_fragmented`), takes
the sender's IPID, checksums the datagram from that sum and, on a
*uniform* pair (routed, lossless, fault-free, no capture attached), sends
it as a structured datagram — its header fields plus the payload object,
no header bytes: appended to the open
:class:`~repro.netsim.burst.DatagramBatch` when that batch is due at the
same instant and the datagram takes the next sequence number, else pushed
as a new batch heap entry.  A spoofing round — one source spraying one
payload at each of many destinations, each under its own checksum — goes
through :meth:`Network.transmit_spray`, which resolves the round's
pipelines once into a plan cached per (src, destinations) and, when the
plan is uniform, pushes the round as one batch whose datagrams share the
round's payload object.  Everything else is a
packet — fragments, sends over lossy or faulted pairs or with a capture
attached, a non-uniform spray — and every packet send is one
:meth:`Network.transmit` call with one heap push per delivery.  Whether a
delivery verifies the UDP checksum is the receiving host's ``OSProfile``
decision, read at delivery time.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from itertools import repeat
from typing import Optional

from repro.netsim.burst import DatagramBatch, MAX_DELIVERY_BURST
from repro.netsim.capture import PacketCapture
from repro.netsim.datapath import DeliveryPipeline, UNROUTED_PIPELINE
from repro.netsim.errors import AddressError, NoRouteError, SimulationError
from repro.netsim.faults import FaultChannel, FaultPlan, FaultStats
from repro.netsim.fragmentation import MINIMUM_IPV4_MTU
from repro.netsim.host import Host, OSProfile
from repro.netsim.ipid import IPIDAllocator
from repro.netsim.packet import IPV4_HEADER_LEN, IPv4Packet
from repro.netsim.simulator import Simulator, _BURST
from repro.netsim.udp import (
    UDP_HEADER_LEN,
    _UDP_HEADER,
    _address_word_sum,
    udp_checksum_arith,
)
from repro.perf import STAGES, perf_counter

#: Bound once: the send fold runs per datagram, and the ``int.`` attribute
#: load is a measurable share of it.
_from_bytes = int.from_bytes


@dataclass(frozen=True)
class Link:
    """Delivery parameters between a pair of hosts (symmetric).

    Frozen: compiled pipelines bake these scalars in at first transmit, so
    in-place mutation would be silently ignored — change a link by calling
    :meth:`Network.set_link` with a new ``Link``, which also invalidates
    the compiled pipelines.
    """

    latency: float = 0.01
    loss_probability: float = 0.0
    mtu: int = 1500
    #: Optional fault plan; ``None`` (or an inert plan, normalised to
    #: ``None`` by :meth:`Network.set_link_faults`) keeps the exact
    #: fault-free fast paths.  See :mod:`repro.netsim.faults`.
    faults: Optional[FaultPlan] = None


#: Bound on the per-(src, dst) compiled-pipeline cache; src is attacker
#: controlled (spoofed), so the cache is cleared wholesale when full.
PIPELINE_CACHE_MAX_ENTRIES = 65536

#: Bound on the per-(src, destinations) spray-plan cache (clear-on-full,
#: like the pipeline cache: the source of a spray is spoofed).
SPRAY_PLAN_CACHE_MAX_ENTRIES = 4096


class Network:
    """A set of hosts plus the rules for moving packets between them.

    Parameters
    ----------
    strict_routing:
        When true, :meth:`transmit` raises :class:`NoRouteError` (a typed
        :class:`~repro.netsim.errors.NetSimError`) for packets addressed to
        an unknown destination instead of silently dropping them.  The
        default keeps the Internet-like silent drop — attack scenarios
        legitimately send packets to unrouted addresses (e.g. a victim
        polling a poisoned address with no host behind it) — while strict
        mode turns typos in experiment topologies into hard errors.
    """

    def __init__(
        self,
        simulator: Simulator,
        default_latency: float = 0.01,
        default_loss: float = 0.0,
        strict_routing: bool = False,
    ) -> None:
        self.simulator = simulator
        self.default_link = Link(latency=default_latency, loss_probability=default_loss)
        self.strict_routing = strict_routing
        self._hosts: dict[str, Host] = {}
        self._links: dict[frozenset[str], Link] = {}
        #: Per-(src, dst) compiled delivery pipelines; invalidated by
        #: set_link and add_host.  Bounded (clear-on-full, like the intern
        #: tables): src is whatever the sender claims, so spoofing sweeps
        #: must not grow it unbounded.
        self._pipelines: dict[tuple[str, str], DeliveryPipeline] = {}
        #: Bumped whenever compiled pipelines go stale (topology edits,
        #: explicit invalidation) — but not by the cache's clear-on-full,
        #: which drops pipelines that are still valid.  Spray plans record
        #: the epoch they were compiled in.
        self.pipeline_epoch = 0
        #: Per-(src, destinations) spray plans: ``(epoch, latency, targets)``
        #: with ``targets`` None for a non-uniform spray (see transmit_spray).
        self._spray_plans: dict[tuple, tuple] = {}
        #: The batch :meth:`send_udp` appends to while it stays open
        #: (see there); None until the first batched send.
        self._batch: Optional[DatagramBatch] = None
        #: Per-directed-pair fault channels.  Owned here — NOT in the
        #: pipeline cache — so Gilbert–Elliott chain state and the
        #: channel RNG position survive pipeline invalidation (topology
        #: edits, cache overflow from spoofing sweeps).
        self._fault_channels: dict[tuple[str, str], FaultChannel] = {}
        #: Counters of channels retired by scheduled regime swaps
        #: (:meth:`swap_link_faults`), folded into :meth:`fault_stats` so a
        #: multi-phase chaos campaign never loses accounting mid-run.
        self._retired_fault_stats: dict[tuple[str, str], FaultStats] = {}
        #: Per-directed-pair swap epoch; epoch N > 0 derives the channel's
        #: named stream as ``faults:src>dst@N`` so a swapped-in plan gets
        #: fresh draws instead of rewinding the pair's original stream.
        self._fault_epochs: dict[tuple[str, str], int] = {}
        self._captures: list[PacketCapture] = []
        self._rng = simulator.spawn_rng()
        self.packets_transmitted = 0
        self.packets_dropped = 0

    # ---------------------------------------------------------------- hosts
    def add_host(
        self,
        name: str,
        ip: str,
        profile: Optional[OSProfile] = None,
        ipid_allocator: Optional[IPIDAllocator] = None,
        interface_mtu: int = 1500,
    ) -> Host:
        """Create a host, register it under its IP address, and return it."""
        if ip in self._hosts:
            raise NoRouteError(f"address {ip} already registered")
        host = Host(
            name=name,
            ip=ip,
            network=self,
            profile=profile,
            ipid_allocator=ipid_allocator,
            interface_mtu=interface_mtu,
        )
        self._hosts[ip] = host
        # A cached "unrouted" pipeline for this address is now stale.
        self.invalidate_pipelines()
        return host

    def host(self, ip: str) -> Host:
        """Look up the host registered at ``ip``."""
        if ip not in self._hosts:
            raise NoRouteError(f"no host at {ip}")
        return self._hosts[ip]

    def has_host(self, ip: str) -> bool:
        """True when a host is registered at ``ip``."""
        return ip in self._hosts

    def hosts(self) -> list[Host]:
        """All registered hosts."""
        return list(self._hosts.values())

    # ---------------------------------------------------------------- links
    def set_link(self, ip_a: str, ip_b: str, link: Link) -> None:
        """Override delivery parameters between two addresses."""
        if link.latency < 0:
            raise SimulationError(f"negative link latency: {link.latency}")
        self._links[frozenset((ip_a, ip_b))] = link
        self.invalidate_pipelines()

    def link_between(self, ip_a: str, ip_b: str) -> Link:
        """The link used between two addresses (default if not overridden)."""
        return self._links.get(frozenset((ip_a, ip_b)), self.default_link)

    # --------------------------------------------------------------- faults
    def set_link_faults(self, ip_a: str, ip_b: str, *components) -> FaultPlan:
        """Attach fault components to the link between two addresses.

        Accepts either loose components (composed into a
        :class:`~repro.netsim.faults.FaultPlan` here) or one pre-built
        plan.  Keeps the link's latency/loss/MTU and swaps in the
        plan; an inert plan (every component zero-rate — including the
        empty call, which clears faults) is normalised to ``None`` so the
        link keeps the exact fault-free fast paths.  Replacing an active
        plan resets the pair's channel state (chain states, RNG position,
        stats) on next transmit; returns the composed plan.
        """
        if len(components) == 1 and isinstance(components[0], FaultPlan):
            plan = components[0]
        else:
            plan = FaultPlan(*components)
        current = self.link_between(ip_a, ip_b)
        self.set_link(
            ip_a,
            ip_b,
            Link(
                latency=current.latency,
                loss_probability=current.loss_probability,
                mtu=current.mtu,
                faults=None if plan.is_inert else plan,
            ),
        )
        return plan

    def swap_link_faults(self, ip_a: str, ip_b: str, *components) -> FaultPlan:
        """Replace a link's fault plan mid-run (a scheduled regime swap).

        Like :meth:`set_link_faults`, but built for phased chaos regimes:
        the accumulated :class:`FaultStats` of both directed pairs are
        folded into a retired-counters ledger (so :meth:`fault_stats` and
        :meth:`pair_fault_stats` keep counting across swaps), and the
        replacement channels draw from fresh *epoch-tagged* named streams
        (``faults:src>dst@N``) instead of restarting — and thereby
        replaying — the pair's original stream.  An empty call retires
        the faults entirely (the link heals).
        """
        for pair in ((ip_a, ip_b), (ip_b, ip_a)):
            channel = self._fault_channels.pop(pair, None)
            if channel is not None:
                retired = self._retired_fault_stats.get(pair)
                if retired is None:
                    retired = self._retired_fault_stats[pair] = FaultStats()
                retired.merge(channel.stats)
            self._fault_epochs[pair] = self._fault_epochs.get(pair, 0) + 1
        return self.set_link_faults(ip_a, ip_b, *components)

    def apply_fault_schedule(
        self, ip_a: str, ip_b: str, schedule, extra: tuple = ()
    ) -> None:
        """Attach a :class:`~repro.netsim.faults.FaultSchedule` to a link.

        Entries at or before the current instant apply immediately via
        :meth:`set_link_faults`; later entries become simulator events
        firing :meth:`swap_link_faults` at their absolute times.  ``extra``
        components (e.g. the client's base fault regime from its
        population spec) are composed into *every* entry's plan, so a
        scheduled chaos overlay layers on top of — rather than silently
        clearing — the link's standing faults.  An inert schedule attaches
        nothing and schedules nothing: fault-free runs stay bit-identical.
        """
        if schedule.is_inert:
            return
        extra = tuple(extra)
        now = self.simulator.now
        for time, components in schedule.entries:
            merged = extra + tuple(components)
            if time <= now:
                self.set_link_faults(ip_a, ip_b, *merged)
            else:
                self.simulator.schedule(
                    time - now,
                    self.swap_link_faults,
                    label="fault-regime-swap",
                    args=(ip_a, ip_b, *merged),
                )

    def fault_channel(self, src: str, dst: str) -> Optional[FaultChannel]:
        """The live channel for one directed pair (None until traffic flows
        — channels materialise at first pipeline compile)."""
        return self._fault_channels.get((src, dst))

    def fault_stats(self) -> FaultStats:
        """Aggregate fault counters across every channel in the network.

        Includes channels retired by scheduled regime swaps — the total is
        monotone across a phased campaign.
        """
        total = FaultStats()
        for stats in self._retired_fault_stats.values():
            total.merge(stats)
        for channel in self._fault_channels.values():
            total.merge(channel.stats)
        return total

    def pair_fault_stats(self, src: str, dst: str) -> FaultStats:
        """Accumulated counters for one directed pair (retired + live)."""
        total = FaultStats()
        retired = self._retired_fault_stats.get((src, dst))
        if retired is not None:
            total.merge(retired)
        channel = self._fault_channels.get((src, dst))
        if channel is not None:
            total.merge(channel.stats)
        return total

    def per_pair_fault_stats(self) -> dict[tuple[str, str], FaultStats]:
        """Merged (retired + live) counters for every directed pair seen.

        This is what surfaces per-link fault evidence into population
        aggregates: callers group the directed pairs however they like
        (per client, per correlation group) and merge.
        """
        merged: dict[tuple[str, str], FaultStats] = {}
        for pair, stats in self._retired_fault_stats.items():
            copy = FaultStats()
            copy.merge(stats)
            merged[pair] = copy
        for pair, channel in self._fault_channels.items():
            copy = merged.get(pair)
            if copy is None:
                copy = merged[pair] = FaultStats()
            copy.merge(channel.stats)
        return merged

    # ------------------------------------------------------------ pipelines
    def pipeline_for(self, src: str, dst: str) -> DeliveryPipeline:
        """The compiled pipeline used from ``src`` to ``dst`` (cached).

        Raises :class:`NoRouteError` when the destination is unknown —
        callers that want the transmit-path drop semantics go through
        :meth:`transmit` instead.
        """
        pipeline = self._pipelines.get((src, dst))
        if pipeline is None:
            pipeline = self._compile_pipeline(src, dst)
        if pipeline.deliver is None:
            raise NoRouteError(f"no host at {dst}")
        return pipeline

    def _compile_pipeline(self, src: str, dst: str) -> DeliveryPipeline:
        """Resolve host and link into one cached pipeline."""
        host = self._hosts.get(dst)
        if host is None:
            pipeline = UNROUTED_PIPELINE
        else:
            link = self.link_between(src, dst)
            if link.latency < 0:
                raise SimulationError(f"negative link latency: {link.latency}")
            # Only a lossless, fault-free pair may carry bytes, and ``src``
            # is whatever the sender claims: a syntactically invalid spoofed
            # source cannot bake a pseudo-header sum.  Such pairs keep the
            # packet path, which reports the same failure it always did, at
            # delivery time rather than here.
            address_sum = None
            if link.loss_probability <= 0 and link.faults is None:
                try:
                    address_sum = _address_word_sum(src) + _address_word_sum(dst) + 17
                except AddressError:
                    pass
            channel = None
            plan = link.faults
            if plan is not None:
                # Channels outlive the pipeline cache (state must survive
                # invalidation); a *different* plan on the link means the
                # experimenter replaced it — start a fresh channel.
                channel = self._fault_channels.get((src, dst))
                if channel is None or channel.plan is not plan:
                    # Epoch 0 keeps the original stream name (bit-identity
                    # with pre-swap behaviour); swapped-in plans get their
                    # own stream so they never replay earlier draws.
                    epoch = self._fault_epochs.get((src, dst), 0)
                    name = (
                        f"faults:{src}>{dst}"
                        if epoch == 0
                        else f"faults:{src}>{dst}@{epoch}"
                    )
                    channel = FaultChannel(
                        plan, self.simulator.spawn_named_rng(name)
                    )
                    self._fault_channels[(src, dst)] = channel
            pipeline = DeliveryPipeline(
                link.latency,
                link.loss_probability,
                host.datapath.deliver,
                datapath=host.datapath,
                address_sum=address_sum,
                faults=channel,
            )
        if len(self._pipelines) >= PIPELINE_CACHE_MAX_ENTRIES:
            self._pipelines.clear()
        self._pipelines[(src, dst)] = pipeline
        return pipeline

    def invalidate_pipelines(self) -> None:
        """Drop every compiled pipeline (they recompile on next transmit)
        and retire every spray plan built from them."""
        self._pipelines.clear()
        self.pipeline_epoch += 1

    # ------------------------------------------------------------- captures
    def attach_capture(self, capture: PacketCapture) -> None:
        """Attach a capture that observes every delivered packet."""
        self._captures.append(capture)

    # ------------------------------------------------------------- delivery
    def send_udp(
        self, host: Host, dst: str, src_port: int, dst_port: int, payload: bytes
    ) -> None:
        """Send one UDP datagram from ``host`` (behind :meth:`UDPSocket.sendto`).

        The ports must already be range-checked (``sendto`` does it).  A
        datagram larger than the host's path MTU towards ``dst`` goes to
        :meth:`Host.send_fragmented`.  One that fits takes the host's next
        IPID, counts as sent and gets its RFC 768 checksum folded here from
        the pipeline's pseudo-header sum.  On a uniform pair with no
        capture attached it travels as its header fields plus ``payload``
        itself, no header bytes packed: it joins
        the open :class:`~repro.netsim.burst.DatagramBatch` when that batch
        is due at the same instant and this datagram takes the sequence
        number right after its last member — so no other event can sort
        between them, and delivery order, ``events_processed`` and
        :meth:`~repro.netsim.simulator.Simulator.pending` stay those of one
        entry per datagram — and otherwise opens a new batch heap entry.
        Anything else builds the packet and takes :meth:`transmit`, exactly
        as a packet send would.
        """
        length = UDP_HEADER_LEN + len(payload)
        mtu = host.path_mtu(dst) if host._pmtu else host.interface_mtu
        if mtu < MINIMUM_IPV4_MTU or IPV4_HEADER_LEN + length > mtu:
            # Too large for the path (or an MTU so small that the
            # fragmenter rejects it outright).
            host.send_fragmented(dst, src_port, dst_port, payload, mtu)
            return
        src = host.ip
        ipid = host.ipid_allocator.next_ipid(dst)
        host.stats.udp_sent += 1
        pipeline = self._pipelines.get((src, dst))
        if pipeline is None:
            pipeline = self._compile_pipeline(src, dst)
        address_sum = pipeline.address_sum
        if address_sum is None or self._captures:
            checksum = udp_checksum_arith(src, dst, src_port, dst_port, payload)
            header = _UDP_HEADER.pack(src_port, dst_port, length, checksum)
            self.transmit(IPv4Packet.udp(src, dst, header + payload, ipid))
            return
        # udp_checksum_arith with the pair's sum baked in: ``folded`` lies
        # in [0, 0xFFFE], where ``0xFFFF - folded`` is the complement with
        # both RFC 768 special cases applied.
        value = _from_bytes(payload, "big")
        if length & 1:
            value <<= 8
        folded = (address_sum + length + length + src_port + dst_port + value) % 0xFFFF
        self.packets_transmitted += 1
        simulator = self.simulator
        sequence = simulator._sequence
        simulator._sequence = sequence + 1
        deliver_at = simulator._now + pipeline.latency
        item = (pipeline, src, src_port, dst_port, length, 0xFFFF - folded, payload, ipid)
        batch = self._batch
        if (
            batch is not None
            and batch.end == sequence
            and batch.time == deliver_at
            and batch.count < MAX_DELIVERY_BURST
        ):
            batch.items.append(item)
            batch.count += 1
            batch.end = sequence + 1
            return
        self._batch = batch = DatagramBatch(deliver_at, [item], 1, sequence + 1)
        simulator.bursts_posted += 1
        heappush(simulator._queue, (deliver_at, sequence, batch, _BURST))

    def transmit(self, packet: IPv4Packet) -> None:
        """Deliver a packet from its (claimed) source to its destination.

        Packets addressed to unknown destinations are silently dropped, like
        the real Internet does for unrouted addresses — unless the network
        was built with ``strict_routing=True``, in which case a typed
        :class:`NoRouteError` is raised.
        """
        self.packets_transmitted += 1
        pipeline = self._pipelines.get((packet.src, packet.dst))
        if pipeline is None:
            pipeline = self._compile_pipeline(packet.src, packet.dst)
        deliver = pipeline.deliver
        if deliver is None:
            if self.strict_routing:
                raise NoRouteError(f"no host at {packet.dst}")
            self.packets_dropped += 1
            return
        if pipeline.loss_probability > 0 and self._rng.random() < pipeline.loss_probability:
            self.packets_dropped += 1
            return
        if pipeline.faults is not None:
            # Faulted pair: off the inlined fast path onto the channel's
            # slow path.  Base-loss draws above already came from the
            # network RNG in their usual order, so fault-free pairs in the
            # same run stay bit-identical.
            return self._transmit_faulted(pipeline, packet)
        simulator = self.simulator
        if self._captures:
            now = simulator._now
            for capture in self._captures:
                capture.observe(packet, now)
        # Hot path: an inlined Simulator.post — compiled pipelines verified
        # their latency non-negative at compile time, so the delay check and
        # the call frame are both skipped.  One anonymous heap entry per
        # packet, identical to what post() would push.
        sequence = simulator._sequence
        simulator._sequence = sequence + 1
        heappush(
            simulator._queue,
            (simulator._now + pipeline.latency, sequence, deliver, packet),
        )

    def _transmit_faulted(self, pipeline: DeliveryPipeline, packet: IPv4Packet) -> None:
        """Schedule one packet through a faulted pair's channel.

        The event-for-event-equivalent slow path behind :meth:`transmit`
        for links carrying an active fault plan: the channel decides drop /
        corrupt / delay / duplicate, and each surviving delivery is
        scheduled as the exact anonymous heap entry the fast path would have
        pushed (at the link latency plus the fault-assigned extra delay).
        Captures observe the surviving deliveries — what actually travels
        the wire, corrupted bytes and duplicates included — mirroring how
        the fault-free path only observes packets that passed the loss
        draw.
        """
        simulator = self.simulator
        if STAGES.enabled:
            t0 = perf_counter()
            deliveries = pipeline.faults.process(packet, simulator._now)
            STAGES.add_many("faults", perf_counter() - t0, 1)
        else:
            deliveries = pipeline.faults.process(packet, simulator._now)
        if not deliveries:
            self.packets_dropped += 1
            return
        deliver = pipeline.deliver
        latency = pipeline.latency
        captures = self._captures
        queue = simulator._queue
        now = simulator._now
        for extra, delivered in deliveries:
            if captures:
                for capture in captures:
                    capture.observe(delivered, now)
            sequence = simulator._sequence
            simulator._sequence = sequence + 1
            heappush(queue, (now + latency + extra, sequence, deliver, delivered))

    def transmit_spray(
        self,
        src: str,
        destinations: tuple,
        src_port: int,
        dst_port: int,
        payload: bytes,
        checksums: list,
        ipids: list,
    ) -> None:
        """Off-path injection of one source's datagram spray.

        Every datagram goes from ``src``:``src_port`` to
        ``destinations[i]``:``dst_port`` in IPv4 packet ``ipids[i]``, carries
        the one ``payload`` of the round and the UDP checksum field
        ``checksums[i]`` (written as given: the caller crafts it, so it may
        be zero or wrong); ``destinations`` must be a tuple (it keys the
        plan cache).  Event-for-event equivalent to :meth:`inject` of the
        same packets in order (pinned by a property test).  A *uniform*
        plan — every pair routed, lossless and fault-free at one latency,
        at most :data:`~repro.netsim.burst.MAX_DELIVERY_BURST` datagrams —
        with no capture attached pushes the whole spray as one closed
        :class:`~repro.netsim.burst.DatagramBatch` of spoofed datagrams
        that consumes one sequence number per datagram; no header bytes
        and no packet object are built unless a destination needs a packet
        at delivery.  Anything else is the packet fallback: each datagram
        becomes a packet (header packed per destination) sent by
        :meth:`inject`, so loss draws, fault channels and captures behave
        exactly as for any other packet.
        """
        if not checksums:
            return
        plan = self._spray_plans.get((src, destinations))
        if plan is None or plan[0] != self.pipeline_epoch:
            plan = self._compile_spray_plan(src, destinations)
        _epoch, latency, targets = plan
        length = UDP_HEADER_LEN + len(payload)
        if targets is None or self._captures:
            for dst, checksum, ipid in zip(destinations, checksums, ipids):
                header = _UDP_HEADER.pack(src_port, dst_port, length, checksum)
                self.inject(IPv4Packet.udp(src, dst, header + payload, ipid))
            return
        count = len(checksums)
        self.packets_transmitted += count
        simulator = self.simulator
        sequence = simulator._sequence
        simulator._sequence = sequence + count
        simulator.bursts_posted += 1
        deliver_at = simulator._now + latency
        items = zip(
            targets,
            repeat(src),
            repeat(src_port),
            repeat(dst_port),
            repeat(length),
            checksums,
            repeat(payload),
            ipids,
        )
        batch = DatagramBatch(deliver_at, items, count, -1, True)
        heappush(simulator._queue, (deliver_at, sequence, batch, _BURST))

    def _compile_spray_plan(self, src: str, destinations: tuple) -> tuple:
        """Resolve a spray's pipelines into ``(epoch, latency, targets)``.

        ``targets`` holds one compiled pipeline per destination, or is None
        when the spray is not uniform (the first disqualifying pair stops
        the scan; the fallback compiles the remaining pipelines in send
        order, as it always did).
        """
        targets: Optional[list] = []
        latency = 0.0
        if len(destinations) > MAX_DELIVERY_BURST:
            targets = None
        else:
            for dst in destinations:
                pipeline = self._pipelines.get((src, dst))
                if pipeline is None:
                    try:
                        pipeline = self._compile_pipeline(src, dst)
                    except SimulationError:
                        # Raised again, at this datagram, by the fallback.
                        targets = None
                        break
                if pipeline.address_sum is None or (
                    targets and pipeline.latency != latency
                ):
                    targets = None
                    break
                latency = pipeline.latency
                targets.append(pipeline)
        plan = (self.pipeline_epoch, latency, None if targets is None else tuple(targets))
        plans = self._spray_plans
        if len(plans) >= SPRAY_PLAN_CACHE_MAX_ENTRIES:
            plans.clear()
        plans[(src, destinations)] = plan
        return plan

    def inject(self, packet: IPv4Packet, mark_spoofed: bool = True) -> None:
        """Off-path injection of a (typically source-spoofed) packet.

        The packet is delivered exactly like normal traffic; ``mark_spoofed``
        tags it so tests and the defragmentation cache can count how often a
        spoofed fragment ends up in a reassembled packet.  The tag models
        ground truth available to the experimenter, not to the victim.
        """
        if mark_spoofed:
            packet.metadata.setdefault("spoofed", True)
        self.transmit(packet)
