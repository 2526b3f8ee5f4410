"""Compiled per-link delivery pipelines: the packet dispatch fast path.

PR 2's stage counters attributed ~85% of Table II wall time to
``dispatch_other`` — the Network.transmit → Link → Host.receive → defrag →
UDP-checksum → socket-deliver → handler chain, six cross-module hops per
packet.  This module collapses that chain into objects compiled once per
link and cached:

* :class:`HostDatapath` — one per host, created by ``Host.__init__``.  Its
  :meth:`~HostDatapath.deliver` method is the whole receive side for a
  *packet* (capture tap, fragmentation check, defrag, checksum verify,
  port demux, handler call) as a single flat function with the host's
  defrag cache, socket table, stats block and OS-profile flags pre-bound
  to slots.  The semantics are exactly those of the pre-refactor
  ``Host.receive`` / ``Host._deliver_udp`` pair — pinned by the golden
  determinism test — but without the per-packet method-call tower,
  property lookups, or the intermediate ``UDPDatagram`` allocation.
  Datagrams that travel in a :class:`~repro.netsim.burst.DatagramBatch`
  (header fields plus payload, no packet) run the same checks in the
  batch drain against the same slots, so only
  materialised packets reach this method: fragments, packets to a tapped
  host, captured traffic and traffic over lossy or faulted links.
* :class:`DeliveryPipeline` — one per (src, dst) pair, compiled and cached
  by :class:`~repro.netsim.network.Network`.  It carries the resolved link
  latency, loss probability, the destination's bound deliver callable and
  the pair's pseudo-header sum, so a send is a single dict hit plus a
  heap push or a batch append.  Whether a delivery verifies the UDP
  checksum is the destination host's ``OSProfile`` decision, read at
  delivery.

Stage attribution: while ``repro.perf.STAGES`` collection is enabled,
:meth:`HostDatapath.deliver` records per-stage wall time (``defrag``,
``checksum``, ``demux``, ``handler``) as it goes; the same body runs with
collection off, minus the timer reads.  Timing never feeds the
simulation, so instrumented runs remain bit-identical.

Private-attribute access: the flat paths read ``Simulator._now``,
``DefragmentationCache._buckets`` and ``Host._sockets`` directly.  These
are deliberate friend accesses of the datapath (documented at each site);
all three objects are created once per owner and mutated in place, so
binding them at compile time is safe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.netsim.icmp import ICMPMessage
from repro.netsim.packet import IPProtocol, IPv4Packet
from repro.netsim.sockets import ReceivedDatagram
from repro.netsim.udp import UDP_HEADER_LEN, _UDP_HEADER, udp_checksum_arith
from repro.perf import STAGES, perf_counter

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.netsim.host import Host

#: Bound locals shared by every compiled deliver body.
_UDP = IPProtocol.UDP
_ICMP = IPProtocol.ICMP
_UNPACK_UDP_HEADER = _UDP_HEADER.unpack_from


class DeliveryPipeline:
    """The compiled delivery plan for one (src, dst) address pair.

    ``deliver`` is the destination datapath's bound deliver method — or
    ``None`` for the shared *unrouted* pipeline, which stands in for
    destinations with no registered host so repeat sends to the same
    unknown address stay one dict hit.

    ``faults`` is ``None`` on every fault-free pair (the only value the
    golden runs ever see).  When the link carries an active
    :class:`~repro.netsim.faults.FaultPlan`, it is the network-owned
    :class:`~repro.netsim.faults.FaultChannel` for this directed pair: the
    transmit paths route each surviving packet through
    ``faults.process(...)`` before scheduling, which is the *only* hook
    the fault layer has into the hot path — one slot read per packet when
    inactive.

    ``datapath`` and ``address_sum`` exist for the batch paths
    (:meth:`~repro.netsim.network.Network.send_udp`,
    :meth:`~repro.netsim.network.Network.transmit_spray` and the
    :class:`~repro.netsim.burst.DatagramBatch` drain), which carry
    datagrams as header fields plus payload, without a packet object:
    the compiled datapath behind
    ``deliver``, and the pair's pseudo-header address word sum plus the
    protocol word, baked once per compiled pair like the latency.  The
    send path folds it into the RFC 768 checksum and the drain into the
    verify.  It is set exactly on the pairs that may carry batches:
    ``None`` marks unrouted, lossy and faulted pairs and pairs whose
    claimed source does not parse (``src`` is whatever a spoofer writes),
    which all keep the packet path.  Whether a delivery verifies at all
    is read from the datapath at delivery, never baked here.
    """

    __slots__ = (
        "latency",
        "loss_probability",
        "deliver",
        "datapath",
        "address_sum",
        "faults",
    )

    def __init__(
        self,
        latency: float,
        loss_probability: float,
        deliver,
        datapath: "Optional[HostDatapath]" = None,
        address_sum: Optional[int] = None,
        faults=None,
    ) -> None:
        self.latency = latency
        self.loss_probability = loss_probability
        self.deliver = deliver
        self.datapath = datapath
        self.address_sum = address_sum
        self.faults = faults


#: Cached pipeline for destinations that have no host (dropped on send).
UNROUTED_PIPELINE = DeliveryPipeline(0.0, 0.0, None)


class HostDatapath:
    """The compiled receive side of one host.

    Created once per host; every slot is bound to an object the host owns
    and mutates in place (socket table, defrag cache, stats block), so the
    compiled paths observe live state without per-packet attribute chases.
    OS-profile *flags* are copied at construction — profiles are fixed at
    host creation everywhere in the codebase; a caller that mutates one
    afterwards must call :meth:`recompile`.
    """

    __slots__ = (
        "host",
        "simulator",
        "defrag",
        "defrag_buckets",
        "sockets",
        "stats",
        "verify_checksum",
        "drops_fragments",
    )

    def __init__(self, host: "Host") -> None:
        self.host = host
        self.simulator = host.simulator
        self.defrag = host.defrag
        self.defrag_buckets = host.defrag._buckets  # friend access, see module doc
        self.sockets = host._sockets  # friend access, see module doc
        self.stats = host.stats
        self.verify_checksum = host.profile.verify_udp_checksum
        self.drops_fragments = host.profile.drops_fragments

    def recompile(self) -> None:
        """Re-read the host's profile flags (after an explicit mutation).

        Every delivery path, the batch drain included, reads the flags
        from here at delivery time, so datagrams already in flight see the
        change too.
        """
        self.verify_checksum = self.host.profile.verify_udp_checksum
        self.drops_fragments = self.host.profile.drops_fragments

    # ------------------------------------------------------------ fast path
    def deliver(self, packet: IPv4Packet) -> None:
        """The compiled receive chain, flat.

        Byte-for-byte and counter-for-counter equivalent to the
        pre-refactor ``Host.receive`` → ``DefragmentationCache`` →
        ``decode_udp`` → ``UDPSocket.deliver`` chain (pinned by the golden
        determinism test), flattened into one frame.  While stage
        collection is enabled it also times the ``defrag``, ``checksum``,
        ``demux`` and ``handler`` stages of each UDP delivery.
        """
        tap = self.host.packet_tap
        if tap is not None:
            tap(packet)
        if packet.protocol is not _UDP:
            return self._deliver_other(packet)
        timed = STAGES.enabled
        if timed:
            t0 = perf_counter()
        if packet.more_fragments or packet.fragment_offset:
            packet = self._reassemble(packet)
        elif self.defrag_buckets:
            # Real kernels sweep reassembly timers on every arrival; the
            # empty-cache case (almost every packet) skips it entirely.
            self.defrag.purge_expired(self.simulator._now)
        if timed:
            t1 = perf_counter()
            STAGES.add("defrag", t1 - t0)
        if packet is None:
            return
        data = packet.payload
        size = len(data)
        ok = size >= UDP_HEADER_LEN
        if ok:
            src_port, dst_port, length, checksum = _UNPACK_UDP_HEADER(data)
            ok = length == size
        if ok:
            payload = data[UDP_HEADER_LEN:]
            if checksum and self.verify_checksum:
                ok = checksum == udp_checksum_arith(
                    packet.src, packet.dst, src_port, dst_port, payload
                )
        if timed:
            t2 = perf_counter()
            STAGES.add("checksum", t2 - t1)
        if not ok:
            self.stats.udp_checksum_failures += 1
            return
        self.stats.udp_received += 1
        if checksum and self.verify_checksum and "corrupted" in packet.metadata:
            self.stats.corrupted_accepted += 1
        socket = self.sockets.get(dst_port)
        handler = None
        if socket is not None and not socket.closed:
            handler = socket.on_datagram
            if handler is None:
                socket.inbox.append(
                    ReceivedDatagram(payload, packet.src, src_port, self.simulator._now)
                )
        if timed:
            t3 = perf_counter()
            STAGES.add("demux", t3 - t2)
        if handler is not None:
            handler(payload, packet.src, src_port)
            if timed:
                STAGES.add("handler", perf_counter() - t3)

    # ----------------------------------------------------------- slow paths
    def _reassemble(self, packet: IPv4Packet) -> Optional[IPv4Packet]:
        """Fragment arrival: honour the drop-fragments profile, reassemble."""
        if self.drops_fragments:
            self.stats.fragments_filtered += 1
            return None
        return self.defrag.add_fragment(packet, self.simulator._now)

    def _deliver_other(self, packet: IPv4Packet) -> None:
        """Non-UDP traffic: ICMP handling, defrag bookkeeping for the rest."""
        if packet.protocol is _ICMP:
            message = packet.metadata.get("icmp")
            if isinstance(message, ICMPMessage):
                self.host._handle_icmp(message, packet.src)
            return
        if (packet.more_fragments or packet.fragment_offset) and self.drops_fragments:
            self.stats.fragments_filtered += 1
            return
        # Mirrors the defrag bookkeeping of the UDP path; a reassembled
        # non-UDP packet has no deliverable upper layer in this simulator.
        self.defrag.add_fragment(packet, self.simulator._now)
