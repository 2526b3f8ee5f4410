"""Compiled per-link delivery pipelines: the packet dispatch fast path.

PR 2's stage counters attributed ~85% of Table II wall time to
``dispatch_other`` — the Network.transmit → Link → Host.receive → defrag →
UDP-checksum → socket-deliver → handler chain, six cross-module hops per
packet.  This module collapses that chain into objects compiled once per
link and cached:

* :class:`HostDatapath` — one per host, created by ``Host.__init__``.  Its
  :meth:`~HostDatapath.deliver` method is the whole receive side (capture
  tap, fragmentation check, defrag, checksum verify, port demux, handler
  call) as a single flat function with the host's defrag cache, socket
  table, stats block and OS-profile flags pre-bound to slots.  The
  semantics are exactly those of the pre-refactor ``Host.receive`` /
  ``Host._deliver_udp`` pair — pinned by the golden determinism test —
  but without the per-packet method-call tower, property lookups, or the
  intermediate ``UDPDatagram`` allocation.
* :class:`DeliveryPipeline` — one per (src, dst) pair, compiled and cached
  by :class:`~repro.netsim.network.Network`.  It carries the resolved link
  latency, loss probability and the destination's bound deliver callable,
  so the transmit hot path is a single dict hit plus a heap push.  Whether
  a delivery verifies the UDP checksum is the destination host's
  ``OSProfile`` decision.

Stage attribution: while ``repro.perf.STAGES`` collection is enabled,
delivery routes through an instrumented twin that accumulates per-stage
wall time (``defrag``, ``checksum``, ``demux``, ``handler``) into the
slots ``STAGES`` keeps for these four stages.  Timing never feeds the
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
from repro.netsim.udp import (
    UDP_HEADER_LEN,
    _UDP_HEADER,
    _address_word_sum,
    udp_checksum_arith,
)
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

    ``datapath``, ``burst_parse`` and ``verify_base`` exist for the spray
    drain (:mod:`repro.netsim.burst`), which delivers raw datagrams without
    a packet object: it needs the compiled datapath behind ``deliver``,
    whether this pair may skip the packet at all (``burst_parse`` — false
    for unrouted pairs and for pairs whose scalar path would raise on an
    unparseable spoofed source), and the pair's pseudo-header address word
    sum plus the protocol word when the scalar path would verify checksums
    (``verify_base`` — ``None`` when the host OS profile does not verify) —
    all baked once per compiled pair, like the latency.  Like every other
    compiled field, they go stale if a host's OS profile is mutated
    afterwards; :meth:`HostDatapath.recompile` invalidates the owning
    network's pipelines for exactly that reason.
    """

    __slots__ = (
        "latency",
        "loss_probability",
        "deliver",
        "datapath",
        "burst_parse",
        "verify_base",
        "faults",
    )

    def __init__(
        self,
        latency: float,
        loss_probability: float,
        deliver,
        datapath: "Optional[HostDatapath]" = None,
        burst_parse: bool = False,
        verify_base: Optional[int] = None,
        faults=None,
    ) -> None:
        self.latency = latency
        self.loss_probability = loss_probability
        self.deliver = deliver
        self.datapath = datapath
        self.burst_parse = burst_parse
        self.verify_base = verify_base
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

        Also drops the network's compiled pipelines: they bake the host's
        verify decision for the spray drain, so a profile mutation must
        force them to recompile too.
        """
        self.verify_checksum = self.host.profile.verify_udp_checksum
        self.drops_fragments = self.host.profile.drops_fragments
        self.host.network.invalidate_pipelines()

    # ------------------------------------------------------------ fast path
    def deliver(self, packet: IPv4Packet) -> None:
        """The compiled receive chain, flat.

        Byte-for-byte and counter-for-counter equivalent to the
        pre-refactor ``Host.receive`` → ``DefragmentationCache`` →
        ``decode_udp`` → ``UDPSocket.deliver`` chain (pinned by the golden
        determinism test), flattened into one frame.
        """
        if STAGES.enabled:
            return self._deliver_timed(packet)
        host = self.host
        tap = host.packet_tap
        if tap is not None:
            tap(packet)
        if packet.protocol is not _UDP:
            return self._deliver_other(packet)
        if packet.more_fragments or packet.fragment_offset:
            packet = self._reassemble(packet)
            if packet is None:
                return
        elif self.defrag_buckets:
            # Real kernels sweep reassembly timers on every arrival; the
            # empty-cache case (almost every packet) skips it entirely.
            self.defrag.purge_expired(self.simulator._now)
        stats = self.stats
        data = packet.payload
        size = len(data)
        if size < UDP_HEADER_LEN:
            stats.udp_checksum_failures += 1
            return
        src_port, dst_port, length, checksum = _UNPACK_UDP_HEADER(data)
        if length != size:
            stats.udp_checksum_failures += 1
            return
        payload = data[UDP_HEADER_LEN:]
        if checksum and self.verify_checksum:
            # Arithmetic verify, inlined and deliberately uncached: spoofing
            # sweeps present a new payload per packet, so a memo here would
            # pay hashing and eviction for a ~0% hit rate; the extra call
            # frames of udp_checksum_arith cost ~6% of a Table II run on
            # this path.  Mirrors udp_checksum_arith / _fold_checksum word
            # for word — drift is caught by test_prop_checksum's
            # TestDeliverVerifyPinnedToArith, which pins this path and the
            # timed twin (it calls udp_checksum_arith instead) to the same
            # accept/reject verdict.
            padded = payload + b"\x00" if (size - UDP_HEADER_LEN) & 1 else payload
            folded = (
                _address_word_sum(packet.src)
                + _address_word_sum(packet.dst)
                + 17
                + length
                + length
                + src_port
                + dst_port
                + int.from_bytes(padded, "big") % 0xFFFF
            ) % 0xFFFF
            expected = ~(folded if folded else 0xFFFF) & 0xFFFF
            if (expected if expected else 0xFFFF) != checksum:
                stats.udp_checksum_failures += 1
                return
        stats.udp_received += 1
        socket = self.sockets.get(dst_port)
        if socket is None or socket.closed:
            return
        handler = socket.on_datagram
        if handler is not None:
            handler(payload, packet.src, src_port)
        else:
            socket.inbox.append(
                ReceivedDatagram(payload, packet.src, src_port, self.simulator._now)
            )

    # ----------------------------------------------------------- slow paths
    def _reassemble(self, packet: IPv4Packet) -> Optional[IPv4Packet]:
        """Fragment arrival: honour the drop-fragments profile, reassemble."""
        if self.drops_fragments:
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
            return
        # Mirrors the defrag bookkeeping of the UDP path; a reassembled
        # non-UDP packet has no deliverable upper layer in this simulator.
        self.defrag.add_fragment(packet, self.simulator._now)

    # -------------------------------------------------------- instrumented
    def _deliver_timed(self, packet: IPv4Packet) -> None:
        """The stage-attributing twin of :meth:`deliver`.

        Accumulates per-stage wall time into the ``STAGES`` delivery-stage
        slots.  Only runs while stage collection is enabled; headline
        throughput numbers are measured on the uninstrumented path.
        """
        stages = STAGES
        host = self.host
        tap = host.packet_tap
        if tap is not None:
            tap(packet)
        if packet.protocol is not _UDP:
            return self._deliver_other(packet)
        t0 = perf_counter()
        if packet.more_fragments or packet.fragment_offset:
            packet = self._reassemble(packet)
            t1 = perf_counter()
            stages.t_defrag += t1 - t0
            stages.n_defrag += 1
            if packet is None:
                return
        else:
            if self.defrag_buckets:
                self.defrag.purge_expired(self.simulator._now)
            t1 = perf_counter()
            stages.t_defrag += t1 - t0
            stages.n_defrag += 1
        stats = self.stats
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
        t2 = perf_counter()
        stages.t_checksum += t2 - t1
        stages.n_checksum += 1
        if not ok:
            stats.udp_checksum_failures += 1
            return
        stats.udp_received += 1
        socket = self.sockets.get(dst_port)
        if socket is None or socket.closed:
            t3 = perf_counter()
            stages.t_demux += t3 - t2
            stages.n_demux += 1
            return
        handler = socket.on_datagram
        if handler is None:
            socket.inbox.append(
                ReceivedDatagram(payload, packet.src, src_port, self.simulator._now)
            )
            t3 = perf_counter()
            stages.t_demux += t3 - t2
            stages.n_demux += 1
            return
        t3 = perf_counter()
        stages.t_demux += t3 - t2
        stages.n_demux += 1
        handler(payload, packet.src, src_port)
        t4 = perf_counter()
        stages.t_handler += t4 - t3
        stages.n_handler += 1
