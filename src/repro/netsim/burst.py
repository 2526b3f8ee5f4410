"""Batch execution: same-instant UDP datagrams drained from one heap entry.

The paper's attacks are *flood-shaped*: an attacker emits dozens of
near-identical datagrams at one simulated instant (a spoofed-query round),
and every server that does not rate-limit answers each of them.  One heap
push and pop per datagram is exactly the cost such floods make redundant,
so the network pushes a same-instant group as one burst heap entry (the
event-loop side lives in :mod:`repro.netsim.simulator`).  The payload is a
:class:`DatagramBatch`: UDP datagrams travelling as their header fields
plus their payload object, no header bytes and no packet objects.  Two
senders fill one:

* :meth:`repro.netsim.network.Network.send_udp` (the one frame behind
  every socket send) appends a datagram that fits its path MTU to the
  network's open batch while the datagram is due at the batch's instant
  and takes the next contiguous sequence number;
* :meth:`~repro.netsim.network.Network.transmit_spray` (the spoofing round
  of the run-time attack) fills a closed batch of spoofed datagrams from
  its cached plan, every one of them carrying the round's one payload
  object under its own checksum.

Only *uniform* pairs — routed, lossless, fault-free, no capture attached —
travel this way; everything else (fragments, the spray fallback) is a
packet sent by :meth:`~repro.netsim.network.Network.transmit`.  The drain
makes one pass per datagram: sweep the host's expired reassembly buckets
when it holds any, check the UDP length field against the payload, verify
the RFC 768 checksum from the header fields and the payload's fold when
the host's profile verifies, bump the host stats, demux, call the handler
with the payload object itself.  The fold of a payload is memoised on its
identity, so a spray round folds its shared payload once.  A destination
with a packet tap installed gets a materialised packet (header packed
there) through ``pipeline.deliver`` instead.

Equivalence contract: the drain is *event-for-event* equivalent to the
per-packet deliveries it replaces — same delivery order, same stats and
defrag bookkeeping, same handler observations, same accept/reject per
checksum — pinned by ``tests/properties/test_prop_burst.py``, the
send-path properties in ``tests/properties/test_prop_send_datagram.py``
and the fixed-seed golden determinism test.  A batch closes when its drain
starts, so a reply sent during the drain over a zero-latency link opens a
new batch instead of growing the one being drained.

Stage attribution: while ``repro.perf.STAGES`` collection is enabled the
drain runs the same loop with timers: handler calls are attributed to the
``handler`` stage, materialised deliveries to the stages
:meth:`repro.netsim.datapath.HostDatapath.deliver` records (``defrag``,
``checksum``, ``demux``, ``handler``), and the rest of the pass (length
check, checksum, stats, demux) to ``burst_drain``.  These are the buckets
the benchmark's traced pass reads through ``STAGES.merged()``.
"""

from __future__ import annotations

from repro.netsim.packet import IPv4Packet
from repro.netsim.sockets import ReceivedDatagram
from repro.netsim.udp import UDP_HEADER_LEN, _UDP_HEADER
from repro.perf import STAGES, perf_counter

#: Bound once: the checksum verify runs per datagram.
_from_bytes = int.from_bytes
_pack_udp_header = _UDP_HEADER.pack

#: Hard cap on datagrams per batch heap entry: bounds the latency of one
#: atomic drain (``send_udp`` opens a new batch past it, and a larger
#: spray takes the packet fallback).
MAX_DELIVERY_BURST = 4096


class DatagramBatch:
    """Same-instant UDP datagrams delivered from one heap entry.

    ``items`` yields ``(pipeline, src, src_port, dst_port, length,
    checksum, payload, ipid)`` per datagram in delivery order: the
    compiled pipeline of the (src, dst) pair, the claimed source, the four
    UDP header fields, the payload object and the IPv4 IPID, read only
    when a packet is materialised.  It is a list while the batch is open
    for appends and a one-shot iterator over a spray's plan otherwise;
    ``count`` is its length.  ``time`` is the delivery instant and ``end``
    the sequence number after the last member while the batch is open,
    ``-1`` once closed.  ``spoofed`` tags the packets materialised from a
    spray batch, as :meth:`~repro.netsim.network.Network.inject` would.
    """

    __slots__ = ("time", "items", "count", "end", "spoofed")

    def __init__(
        self, time: float, items, count: int, end: int, spoofed: bool = False
    ) -> None:
        self.time = time
        self.items = items
        self.count = count
        self.end = end
        self.spoofed = spoofed

    def run(self) -> None:
        self.end = -1  # closed: a send during the drain opens a new batch
        spoofed = self.spoofed
        timed = STAGES.enabled
        if timed:
            started = perf_counter()
            t_handler = 0.0  # handler calls, reported as ``handler``
            t_elsewhere = 0.0  # materialised deliveries time themselves
            handled = 0
        # The fold of the last verified payload: a spray's datagrams share
        # one payload object, so it is folded once per round.
        last_payload = None
        fold = 0
        for pipeline, src, src_port, dst_port, length, checksum, payload, ipid in (
            self.items
        ):
            datapath = pipeline.datapath
            if datapath.host.packet_tap is not None:
                packet = IPv4Packet.udp(
                    src,
                    datapath.host.ip,
                    _pack_udp_header(src_port, dst_port, length, checksum) + payload,
                    ipid,
                )
                if spoofed:
                    packet.metadata["spoofed"] = True
                if timed:
                    t0 = perf_counter()
                    pipeline.deliver(packet)
                    t_elsewhere += perf_counter() - t0
                else:
                    pipeline.deliver(packet)
                continue
            # HostDatapath.deliver for an unfragmented UDP datagram, minus
            # the packet: same checks, counters and order.
            if datapath.defrag_buckets:
                datapath.defrag.purge_expired(datapath.simulator._now)
            stats = datapath.stats
            if length != UDP_HEADER_LEN + len(payload):
                stats.udp_checksum_failures += 1
                continue
            if checksum and datapath.verify_checksum:
                # A big integer is congruent to its 16-bit word sum mod
                # 0xFFFF, so ``fold`` is the payload's word sum reduced
                # (an odd payload is padded with a zero byte).  With the
                # pseudo-header (addresses and protocol in address_sum,
                # the length) and the header words (ports, length,
                # checksum field) the total is 0 mod 0xFFFF exactly when
                # the scalar verify of HostDatapath.deliver accepts a
                # non-zero checksum field.
                if payload is not last_payload:
                    last_payload = payload
                    fold = _from_bytes(payload, "big")
                    if len(payload) & 1:
                        fold <<= 8
                    fold %= 0xFFFF
                if (
                    pipeline.address_sum
                    + length
                    + src_port
                    + dst_port
                    + length
                    + checksum
                    + fold
                ) % 0xFFFF:
                    stats.udp_checksum_failures += 1
                    continue
            stats.udp_received += 1
            socket = datapath.sockets.get(dst_port)
            if socket is None or socket.closed:
                continue
            handler = socket.on_datagram
            if handler is None:
                socket.inbox.append(
                    ReceivedDatagram(payload, src, src_port, datapath.simulator._now)
                )
            elif timed:
                t0 = perf_counter()
                handler(payload, src, src_port)
                t_handler += perf_counter() - t0
                handled += 1
            else:
                handler(payload, src, src_port)
        if timed:
            elapsed = perf_counter() - started
            STAGES.add_many(
                "burst_drain", elapsed - t_handler - t_elsewhere, self.count
            )
            if handled:
                STAGES.add_many("handler", t_handler, handled)
