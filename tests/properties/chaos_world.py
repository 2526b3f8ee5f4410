"""A seeded chaos microworld for the fault-layer property suite.

:func:`chaos_link_faults` streams UDP datagrams across one link carrying
every fault model at once and returns the counters the conservation laws
of ``test_prop_faults.py`` are stated over.
"""

from __future__ import annotations

from typing import Any

from repro.netsim import (
    Corruption,
    Duplication,
    GilbertElliott,
    LatencySpike,
    Network,
    PacketCapture,
    Partition,
    ReorderJitter,
    Simulator,
)

def chaos_link_faults(
    seed: int = 0,
    packets: int = 400,
    interval: float = 0.25,
    payload_size: int = 64,
    p_enter_bad: float = 0.05,
    p_exit_bad: float = 0.3,
    loss_bad: float = 0.8,
    corruption: float = 0.05,
    duplication: float = 0.05,
    reorder: float = 0.1,
    reorder_delay: float = 0.2,
    partition_start: float = 20.0,
    partition_duration: float = 5.0,
    strict: bool = True,
) -> dict[str, Any]:
    """Seeded chaos microworld: one faulted link under every fault model.

    A sender streams ``packets`` UDP datagrams at a fixed ``interval``
    across a link carrying a full :class:`~repro.netsim.faults.FaultPlan`
    (Gilbert–Elliott bursty loss, bit-flip corruption, duplication,
    reorder jitter, a scheduled partition).  The simulator runs with the
    ``strict`` invariant guards on, so heap-monotonicity or accounting
    violations raise instead of corrupting results silently.

    The returned document states the conservation laws the chaos property
    suite asserts:

    * every capture-observed delivery is either verified (``delivered``)
      or rejected by the *real* checksum verify (``checksum_failures``) —
      corruption is detected by arithmetic, not bookkeeping;
    * ``captured == transmitted - fault_dropped + duplicated``; and
    * the whole sweep terminates (the simulator drains) despite
      duplication — fault channels never create self-amplifying traffic.
    """
    simulator = Simulator(seed=seed, strict=strict)
    network = Network(simulator)
    sender = network.add_host("sender", "10.0.0.1")
    receiver = network.add_host("receiver", "10.0.0.2")
    delivered: list[float] = []
    receiver.bind(
        123, on_datagram=lambda payload, src, port: delivered.append(simulator.now)
    )
    network.set_link_faults(
        "10.0.0.1",
        "10.0.0.2",
        GilbertElliott(
            p_enter_bad=p_enter_bad, p_exit_bad=p_exit_bad, loss_bad=loss_bad
        ),
        Corruption(corruption),
        Duplication(duplication),
        ReorderJitter(reorder, max_delay=reorder_delay),
        Partition(partition_start, partition_duration),
        LatencySpike(partition_start + partition_duration, 2.0, extra=0.5),
    )
    capture = PacketCapture()
    network.attach_capture(capture)

    source = sender.bind(0)
    payload = bytes(range(256))[:payload_size] or b"x"

    def send(index: int) -> None:
        source.sendto(payload + index.to_bytes(4, "big"), "10.0.0.2", 123)

    for index in range(packets):
        simulator.post(index * interval, send, index)
    simulator.run()
    if strict:
        simulator.check_invariants()

    corrupted_deliveries = sum(
        1 for captured in capture.packets if captured.packet.metadata.get("corrupted")
    )
    stats = network.fault_stats()
    return {
        "seed": seed,
        "packets": packets,
        "delivered": len(delivered),
        "checksum_failures": receiver.stats.udp_checksum_failures,
        "corrupted_deliveries": corrupted_deliveries,
        "captured": len(capture.packets),
        "transmitted": network.packets_transmitted,
        "fault_dropped": network.packets_dropped,
        "duplicated": stats.duplicated,
        "corrupted_events": stats.corrupted,
        "loss_dropped": stats.dropped_loss,
        "partition_dropped": stats.dropped_partition,
        "reordered": stats.reordered,
        "events_processed": simulator.events_processed,
        "final_time": simulator.now,
    }
