"""Microbenchmarks for the netsim fast path: the speedup is measured, not asserted.

Three families of numbers:

* **Event loop** — the fast-path simulator against ``SeedSimulator``, a
  verbatim copy of the seed implementation (``order=True`` dataclass events
  on the heap).  The headline workload is delivery-shaped, because packet
  delivery dominates real experiments: the seed scheduled a fresh closure
  with an f-string label per packet, the fast path posts a bound method plus
  argument (:meth:`repro.netsim.simulator.Simulator.post`).  Two further
  workloads (plain schedule/drain, self-rescheduling timer chains) are
  reported for context.
* **Packets/sec** — full UDP round through the current stack: encode,
  checksum, transmit, deliver, decode.
* **DNS codec ops/sec** — encode/decode of a pool-style response.

The pytest checks assert the ≥3× event-loop speedup target and generous
absolute floors; they catch gross breakage, not regressions.  Regressions
are the job of ``make regression`` (a paired A/B of the benchmark of record,
``benchmarks/ab.py``).  ``python benchmarks/bench_micro_netsim.py`` prints
the spray, singular packet and socket-send delivery rates as JSON.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.netsim.simulator import Simulator

# --------------------------------------------------------------------------
# Verbatim copy of the seed event loop (git fc48653, src/repro/netsim/
# simulator.py) so the speedup is measured against the real baseline, not a
# strawman.  Only the RNG plumbing is omitted — no workload here draws
# random numbers.
# --------------------------------------------------------------------------


@dataclass(order=True)
class SeedEvent:
    """The seed's heap entry: an order=True dataclass compared in Python."""

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class SeedSimulator:
    """The seed's event loop, kept bit-for-bit for comparison benchmarks."""

    def __init__(self) -> None:
        self._queue: list[SeedEvent] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self.events_processed = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, callback, label: str = "") -> SeedEvent:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, label)

    def schedule_at(self, when: float, callback, label: str = "") -> SeedEvent:
        if when < self._now:
            raise ValueError(f"cannot schedule at {when} (now is {self._now})")
        event = SeedEvent(when, next(self._sequence), callback, label)
        heapq.heappush(self._queue, event)
        return event

    def step(self) -> Optional[SeedEvent]:
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            event.callback()
            self.events_processed += 1
            return event
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        processed = 0
        while self._queue:
            if max_events is not None and processed >= max_events:
                break
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and head.time > until:
                self._now = max(self._now, until)
                break
            if self.step() is not None:
                processed += 1
        if until is not None and not self._queue:
            self._now = max(self._now, until)
        return processed


# ------------------------------------------------------------------ workloads
class _Sink:
    """Stand-in for a Host: the delivery callback target."""

    __slots__ = ("received",)

    def __init__(self) -> None:
        self.received = 0

    def receive(self, packet) -> None:
        self.received += 1


#: Events per timed run.  Large enough to swamp timer resolution, small
#: enough that the whole suite stays in seconds.
EVENTS = 120_000
_DELAYS = [float(i % 97) * 0.001 for i in range(EVENTS)]


@contextmanager
def _no_gc():
    """Disable the cyclic GC inside timed regions.

    Both implementations allocate ~one GC-tracked object per event, so a
    generational collection landing inside one timed run and not the other
    swamps the comparison with noise (observed: ±20% on a loaded box).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _best_of(func, rounds: int = 5) -> float:
    """Best observed rate over ``rounds`` runs (noise-robust maximum)."""
    return max(func() for _ in range(rounds))


def _seed_delivery_events_per_sec() -> float:
    """The seed's per-delivery scheduling: fresh closure + f-string label."""
    sim = SeedSimulator()
    sink = _Sink()
    schedule = sim.schedule
    src, dst = "203.0.113.7", "192.0.2.53"
    with _no_gc():
        started = time.perf_counter()
        for delay in _DELAYS:
            packet = delay  # payload stand-in; a real packet changes both sides equally
            schedule(delay, lambda p=packet: sink.receive(p), label=f"deliver {src}->{dst}")
        sim.run()
        elapsed = time.perf_counter() - started
    assert sink.received == EVENTS
    return EVENTS / elapsed


def _fast_delivery_events_per_sec() -> float:
    """The fast path's per-delivery scheduling: post(bound method, arg)."""
    sim = Simulator(seed=0)
    sink = _Sink()
    post = sim.post
    with _no_gc():
        started = time.perf_counter()
        for delay in _DELAYS:
            post(delay, sink.receive, delay)
        sim.run()
        elapsed = time.perf_counter() - started
    assert sink.received == EVENTS
    return EVENTS / elapsed


def _schedule_drain_events_per_sec(make_simulator) -> float:
    """Plain cancellable schedule of N events, then drain."""
    sim = make_simulator()
    callback = lambda: None  # noqa: E731 - intentionally minimal
    schedule = sim.schedule
    with _no_gc():
        started = time.perf_counter()
        for delay in _DELAYS:
            schedule(delay, callback)
        sim.run()
        return EVENTS / (time.perf_counter() - started)


def _timer_chain_events_per_sec(sim, schedule, timers: int = 10_000) -> float:
    """Self-rescheduling timers: the classic steady-state DES workload."""
    remaining = [EVENTS]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            schedule(1.0, tick)

    with _no_gc():
        started = time.perf_counter()
        for index in range(timers):
            schedule(0.001 * index, tick)
        sim.run()
        return EVENTS / (time.perf_counter() - started)


def event_loop_comparison(rounds: int = 5) -> dict:
    """All event-loop workloads, seed vs fast path, with speedup ratios."""
    seed_delivery = _best_of(_seed_delivery_events_per_sec, rounds)
    fast_delivery = _best_of(_fast_delivery_events_per_sec, rounds)
    seed_drain = _best_of(lambda: _schedule_drain_events_per_sec(SeedSimulator), rounds)
    fast_drain = _best_of(
        lambda: _schedule_drain_events_per_sec(lambda: Simulator(seed=0)), rounds
    )

    def seed_timer() -> float:
        sim = SeedSimulator()
        return _timer_chain_events_per_sec(sim, sim.schedule)

    def fast_timer() -> float:
        sim = Simulator(seed=0)
        return _timer_chain_events_per_sec(sim, sim.post)

    seed_chain = _best_of(seed_timer, rounds)
    fast_chain = _best_of(fast_timer, rounds)
    return {
        "events": EVENTS,
        "delivery": {
            "seed_events_per_sec": round(seed_delivery),
            "fast_events_per_sec": round(fast_delivery),
            "speedup": round(fast_delivery / seed_delivery, 2),
        },
        "schedule_drain": {
            "seed_events_per_sec": round(seed_drain),
            "fast_events_per_sec": round(fast_drain),
            "speedup": round(fast_drain / seed_drain, 2),
        },
        "timer_chain": {
            "seed_events_per_sec": round(seed_chain),
            "fast_events_per_sec": round(fast_chain),
            "speedup": round(fast_chain / seed_chain, 2),
        },
    }


# ------------------------------------------------------------------- packets
def packets_per_sec(count: int = 20_000) -> float:
    """Full UDP rounds through the current stack (encode→deliver→decode)."""
    from repro.netsim.network import Network

    sim = Simulator(seed=0)
    network = Network(sim)
    sender = network.add_host("sender", "192.0.2.1")
    receiver = network.add_host("receiver", "192.0.2.2")
    received = []
    receiver.bind(4242, lambda payload, ip, port: received.append(payload))
    payload = b"x" * 48
    started = time.perf_counter()
    for _ in range(count):
        network.send_udp(sender, "192.0.2.2", 5353, 4242, payload)
        sim.run()
    elapsed = time.perf_counter() - started
    assert len(received) == count
    return count / elapsed


# ------------------------------------------------------------------ pipeline
def pipeline_events_per_sec(count: int = 30_000) -> float:
    """Throughput of the packet path: one ``transmit``, one ``deliver``.

    Every materialised packet takes this path — fragments, deliveries to a
    tapped host, sends over lossy or faulted links, the spray fallback:
    per packet one fast-constructed ``IPv4Packet``, one
    ``Network.transmit`` (pipeline-cache hit + heap push) and one
    ``HostDatapath.deliver`` (defrag bookkeeping, checksum verify, port
    demux, handler call).  Payload encode happens once outside the timed
    region — this is the *dispatch* path, the codecs are measured apart.
    """
    from repro.netsim.network import Network
    from repro.netsim.packet import IPv4Packet
    from repro.netsim.udp import UDPDatagram, encode_udp

    sim = Simulator(seed=0)
    network = Network(sim)
    src, dst = "192.0.2.1", "192.0.2.2"
    network.add_host("sender", src)
    receiver = network.add_host("receiver", dst)
    received = [0]

    def on_datagram(payload: bytes, ip: str, port: int) -> None:
        received[0] += 1

    receiver.bind(4242, on_datagram)
    payload = encode_udp(src, dst, UDPDatagram(5353, 4242, b"x" * 48))
    transmit = network.transmit
    udp = IPv4Packet.udp
    with _no_gc():
        started = time.perf_counter()
        for index in range(count):
            transmit(udp(src, dst, payload, index & 0xFFFF))
        sim.run()
        elapsed = time.perf_counter() - started
    assert received[0] == count
    return count / elapsed


# ---------------------------------------------------------------- socket send
def socket_send_events_per_sec(count: int = 30_000) -> float:
    """Socket-send throughput on the batch path.

    The reply shape of the paper's run-time attack: a host answering many
    queries at one instant.  Per datagram one ``UDPSocket.sendto`` (port
    check, IPID, checksum fold from the pipeline's baked pseudo-header
    sum, one append of the header fields and payload to the open
    ``DatagramBatch``) and one pass of the batch drain (length check,
    checksum verify, demux, handler).  Unlike ``pipeline_events_per_sec``
    the checksum is computed inside the timed region, as a real send
    computes it.
    """
    from repro.netsim.network import Network

    sim = Simulator(seed=0)
    network = Network(sim)
    src, dst = "192.0.2.1", "192.0.2.2"
    sender = network.add_host("sender", src).bind(5353)
    receiver = network.add_host("receiver", dst)
    received = [0]

    def on_datagram(payload: bytes, ip: str, port: int) -> None:
        received[0] += 1

    receiver.bind(4242, on_datagram)
    payload = b"x" * 48
    sendto = sender.sendto
    with _no_gc():
        started = time.perf_counter()
        for _ in range(count):
            sendto(payload, dst, 4242)
        sim.run()
        elapsed = time.perf_counter() - started
    assert received[0] == count
    return count / elapsed


# -------------------------------------------------------------------- bursts
def burst_events_per_sec(count: int = 30_000, burst: int = 64) -> float:
    """Spray delivery throughput through one datagram batch per spray.

    The flood shape of the paper's attacks: sprays of ``burst`` datagrams
    from one source (one per destination host, same instant, one shared
    payload) handed to ``Network.transmit_spray`` — one heap entry per
    spray, drained by one pass per datagram (length check, checksum verify
    from the header fields and the payload's fold, folded once per spray,
    demux, handler) without building header bytes or packet objects.
    Checksums are computed once outside the timed region, so the number
    isolates the transmit+drain engine exactly as
    ``pipeline_events_per_sec`` does for the singular path.
    """
    from repro.netsim.network import Network
    from repro.netsim.udp import udp_checksum_arith

    sim = Simulator(seed=0)
    network = Network(sim)
    src = "192.0.2.1"
    network.add_host("sender", src)
    received = [0]

    def on_datagram(payload: bytes, ip: str, port: int) -> None:
        received[0] += 1

    payload = b"x" * 48
    destinations = []
    checksums = []
    for index in range(burst):
        dst = f"203.0.113.{index + 1}"
        receiver = network.add_host(f"receiver-{index}", dst)
        receiver.bind(4242, on_datagram)
        destinations.append(dst)
        checksums.append(udp_checksum_arith(src, dst, 5353, 4242, payload))
    destinations = tuple(destinations)
    ipids = list(range(burst))

    rounds = max(1, count // burst)
    transmit_spray = network.transmit_spray
    run = sim.run
    with _no_gc():
        started = time.perf_counter()
        for _ in range(rounds):
            transmit_spray(src, destinations, 5353, 4242, payload, checksums, ipids)
            run()
        elapsed = time.perf_counter() - started
    assert received[0] == rounds * burst
    return rounds * burst / elapsed


# ----------------------------------------------------------------- DNS codec
def _pool_response_bytes():
    from repro.dns.message import DNSMessage
    from repro.dns.records import a_record, ns_record

    query = DNSMessage.query("pool.ntp.org", txid=0x1234)
    response = query.make_response(
        answers=[
            a_record("pool.ntp.org", f"203.0.113.{i}", ttl=150) for i in range(1, 5)
        ]
    )
    response.authority.append(ns_record("pool.ntp.org", "ns1.pool.ntp.org"))
    response.additional.append(a_record("ns1.pool.ntp.org", "198.51.100.1", ttl=86400))
    return response, response.encode()


def dns_encode_ops_per_sec(count: int = 20_000) -> float:
    response, _wire = _pool_response_bytes()
    started = time.perf_counter()
    for _ in range(count):
        response.encode()
    return count / (time.perf_counter() - started)


def dns_decode_ops_per_sec(count: int = 20_000) -> float:
    """The victim-path decode rate: replayed payloads hit the decode cache.

    This is what resolvers and nameservers actually execute per packet
    (:meth:`DNSMessage.decode_cached`): an attacker replaying one response
    body under thousands of TXIDs, or many clients asking the same
    question, re-parse nothing.  The answer section is touched so the
    measured op includes section access, not just the cache lookup.
    """
    from repro.dns.message import DNSMessage

    _response, wire = _pool_response_bytes()
    started = time.perf_counter()
    for _ in range(count):
        message = DNSMessage.decode_cached(wire)
        message.answers
    return count / (time.perf_counter() - started)


def dns_decode_cold_ops_per_sec(count: int = 20_000) -> float:
    """Full parses with no payload reuse: every section materialised."""
    from repro.dns.message import DNSMessage

    _response, wire = _pool_response_bytes()
    started = time.perf_counter()
    for _ in range(count):
        message = DNSMessage.decode(wire)
        message.answers
        message.authority
        message.additional
    return count / (time.perf_counter() - started)


# -------------------------------------------------------------------- pytest
def test_event_loop_speedup_at_least_3x():
    """The fast-path issue's acceptance gate, on the delivery workload."""
    comparison = event_loop_comparison(rounds=5)
    delivery = comparison["delivery"]
    print()
    print(
        f"event loop (delivery): seed {delivery['seed_events_per_sec']:,}/s, "
        f"fast {delivery['fast_events_per_sec']:,}/s, "
        f"speedup {delivery['speedup']}x"
    )
    print(f"schedule/drain: {comparison['schedule_drain']}")
    print(f"timer chain:    {comparison['timer_chain']}")
    assert delivery["speedup"] >= 3.0, comparison


def test_packet_and_dns_throughput_sane():
    """Absolute floors, generous enough to be noise-proof on slow CI."""
    assert packets_per_sec(count=5_000) > 5_000
    assert dns_encode_ops_per_sec(count=5_000) > 5_000
    assert dns_decode_ops_per_sec(count=5_000) > 5_000
    assert dns_decode_cold_ops_per_sec(count=5_000) > 5_000


def test_pipeline_dispatch_floor():
    """Absolute floor for the compiled dispatch path (typical: ~275k/s).

    Deliberately far below the typical rate so the floor is noise-proof
    on slow CI.
    """
    assert pipeline_events_per_sec(count=10_000) > 100_000


def test_dns_decode_fast_path_at_least_3x_pr1_baseline():
    """The decode fast-path issue's acceptance gate.

    PR 1's committed baseline measured ~24k decode ops/s; the issue requires
    >= 3x on the victim path.  The asserted floor (72k) deliberately matches
    the issue text rather than the much higher typical cache-hit rate, so
    the gate stays noise-proof on slow CI.
    """
    assert dns_decode_ops_per_sec(count=10_000) >= 72_000


def test_burst_delivery_floor():
    """Absolute floor for the spray delivery path (typical: ~600k/s).

    Noise-proof by design.
    """
    assert burst_events_per_sec(count=10_000) > 120_000


def test_burst_delivery_not_slower_than_singular_dispatch():
    """The spray path must beat per-packet transmit on the spray shape.

    Both rates are measured back-to-back on the same workload scale, so
    only a gross inversion — the spray path regressing below the singular
    pipeline — fails this; typical separation is ≥3×.
    """
    singular = _best_of(lambda: pipeline_events_per_sec(count=10_000), 3)
    burst = _best_of(lambda: burst_events_per_sec(count=10_000), 3)
    assert burst > singular, (burst, singular)


def test_socket_send_not_slower_than_packet_dispatch():
    """Socket sends travel in batches and must beat per-packet transmit.

    Measured back-to-back at the same scale, like the spray check above:
    the socket path also checksums every datagram inside its timed
    region, so only a gross inversion — the batch path regressing below
    the packet pipeline — fails this.
    """
    packets = _best_of(lambda: pipeline_events_per_sec(count=10_000), 3)
    sends = _best_of(lambda: socket_send_events_per_sec(count=10_000), 3)
    assert sends > packets, (sends, packets)


if __name__ == "__main__":
    # ``make bench-burst``: just the delivery-path numbers, quickly.
    import json

    print(
        json.dumps(
            {
                "burst_events_per_sec": round(_best_of(burst_events_per_sec, 3)),
                "pipeline_events_per_sec": round(
                    _best_of(pipeline_events_per_sec, 3)
                ),
                "socket_send_events_per_sec": round(
                    _best_of(socket_send_events_per_sec, 3)
                ),
            },
            indent=2,
        )
    )
