"""Burst execution: same-instant deliveries drained from one heap entry.

The paper's attacks are *flood-shaped*: an attacker emits dozens of
near-identical packets at one simulated instant (a spoofed-query round, an
IPID fragment spray).  One heap push and pop per packet is exactly the cost
such bursts make redundant, so the network pushes a same-instant group as
one burst heap entry (the event-loop side lives in
:mod:`repro.netsim.simulator`).  Two payload shapes exist:

* :class:`SprayDelivery` — the spoofing round of the run-time attack: one
  source spraying one UDP datagram at each of N distinct destinations,
  pushed by :meth:`repro.netsim.network.Network.transmit_spray` when the
  round's plan is *uniform* (every pair routed, lossless, fault-free, one
  latency) and no capture is attached.  The spray carries bytes only — no
  packet objects — and its drain makes one pass per datagram: sweep the
  host's expired reassembly buckets when it holds any, unpack the UDP
  header, verify the RFC 768 checksum from that datagram's own bytes, bump
  the host stats, demux, call the handler.  A destination with a
  packet tap installed, or a pair whose scalar path must see a packet
  (``burst_parse`` false), gets a materialised packet through
  ``pipeline.deliver`` instead.
* :class:`DeliveryBurst` — everything else: fragment sprays and the spray
  fallback (lossy, faulted, unrouted or mixed-latency pairs, or an
  attached capture) go through
  :meth:`~repro.netsim.network.Network.transmit_burst`, which groups
  same-instant packets into entries drained by a plain in-order
  ``pipeline.deliver`` loop.

Equivalence contract: both drains are *event-for-event* equivalent to the
per-packet deliveries they replace — same delivery order, same stats and
defrag bookkeeping, same handler observations, same accept/reject per
checksum — pinned by ``tests/properties/test_prop_burst.py`` and the
fixed-seed golden determinism test.

Stage attribution: while ``repro.perf.STAGES`` collection is enabled the
spray drain runs the same loop with timers: handler calls are attributed
to the ``handler`` stage, materialised deliveries to the stages of the
timed datapath twin they route through (``defrag``, ``checksum``,
``demux``, ``handler``), and the rest of the pass (header unpack,
checksum, stats, demux) to ``burst_drain``.  These are the buckets the
benchmark's traced pass reads through ``STAGES.merged()``.
"""

from __future__ import annotations

from repro.netsim.packet import IPv4Packet
from repro.netsim.sockets import ReceivedDatagram
from repro.netsim.udp import UDP_HEADER_LEN, _UDP_HEADER
from repro.perf import STAGES, perf_counter

_UNPACK_UDP_HEADER = _UDP_HEADER.unpack_from

#: Hard cap on deliveries per burst heap entry: bounds the latency of one
#: atomic drain (the network splits larger same-instant groups).
MAX_DELIVERY_BURST = 4096


class DeliveryBurst:
    """N same-instant packet deliveries packed into one heap entry.

    ``items`` is a list of ``(pipeline, packet)`` pairs in delivery order;
    ``count`` is what the simulator adds to ``events_processed`` when the
    entry drains (one per packet, exactly as N singular entries would).
    """

    __slots__ = ("items", "count")

    def __init__(self, items: list) -> None:
        self.items = items
        self.count = len(items)

    def run(self) -> None:
        for pipeline, packet in self.items:
            pipeline.deliver(packet)


class SprayDelivery:
    """One source's datagram spray, delivered at one instant.

    ``targets`` is the cached spray plan's per-destination tuple
    ``(dst, deliver, datapath, verify_base)``: ``datapath`` is ``None`` for
    pairs that must be delivered as packets, and ``verify_base`` is ``None``
    for pairs whose host does not verify checksums.  ``datagrams[i]`` and
    ``ipids[i]`` belong to ``targets[i]``; the IPIDs are only read when a
    packet is materialised.
    """

    __slots__ = ("src", "targets", "datagrams", "ipids", "count")

    def __init__(self, src: str, targets: tuple, datagrams: list, ipids: list) -> None:
        self.src = src
        self.targets = targets
        self.datagrams = datagrams
        self.ipids = ipids
        self.count = len(datagrams)

    def run(self) -> None:
        src = self.src
        unpack = _UNPACK_UDP_HEADER
        timed = STAGES.enabled
        if timed:
            started = perf_counter()
            t_handler = 0.0  # handler calls, reported as ``handler``
            t_elsewhere = 0.0  # materialised deliveries time themselves
            handled = 0
        for (dst, deliver, datapath, verify_base), datagram, ipid in zip(
            self.targets, self.datagrams, self.ipids
        ):
            if datapath is None or datapath.host.packet_tap is not None:
                packet = IPv4Packet.udp(src, dst, datagram, ipid)
                packet.metadata["spoofed"] = True
                if timed:
                    t0 = perf_counter()
                    deliver(packet)
                    t_elsewhere += perf_counter() - t0
                else:
                    deliver(packet)
                continue
            # HostDatapath.deliver for an unfragmented UDP datagram, minus
            # the packet: same checks, counters and order.
            if datapath.defrag_buckets:
                datapath.defrag.purge_expired(datapath.simulator._now)
            stats = datapath.stats
            size = len(datagram)
            if size < UDP_HEADER_LEN:
                stats.udp_checksum_failures += 1
                continue
            src_port, dst_port, length, checksum = unpack(datagram)
            if length != size:
                stats.udp_checksum_failures += 1
                continue
            if checksum and verify_base is not None:
                # Whole-datagram fold: a big integer is congruent to its
                # 16-bit word sum mod 0xFFFF, so this sums ports, length,
                # checksum field and payload at once (an odd length is
                # padded with a zero byte); the pseudo-header adds the
                # addresses, the protocol (both in verify_base) and the
                # length again.  The total is 0 mod 0xFFFF exactly when the
                # scalar verify of HostDatapath.deliver accepts a non-zero
                # checksum field.
                value = int.from_bytes(datagram, "big")
                if size & 1:
                    value <<= 8
                if (verify_base + length + value) % 0xFFFF:
                    stats.udp_checksum_failures += 1
                    continue
            stats.udp_received += 1
            socket = datapath.sockets.get(dst_port)
            if socket is None or socket.closed:
                continue
            handler = socket.on_datagram
            if handler is None:
                socket.inbox.append(
                    ReceivedDatagram(
                        datagram[UDP_HEADER_LEN:], src, src_port, datapath.simulator._now
                    )
                )
            elif timed:
                t0 = perf_counter()
                handler(datagram[UDP_HEADER_LEN:], src, src_port)
                t_handler += perf_counter() - t0
                handled += 1
            else:
                handler(datagram[UDP_HEADER_LEN:], src, src_port)
        if timed:
            elapsed = perf_counter() - started
            STAGES.add_many(
                "burst_drain", elapsed - t_handler - t_elsewhere, self.count
            )
            if handled:
                STAGES.add_many("handler", t_handler, handled)
