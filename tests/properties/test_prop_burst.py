"""Property tests pinning the spray path to per-packet injection.

Three pinned equivalences:

* ``Network.transmit_spray`` must be event-for-event equivalent to
  injecting the same packets one by one.  The packet fallback *is* a loop
  of ``inject``, so the equivalence property draws only worlds whose every
  round takes the ``DatagramBatch`` entry (routed destinations, no
  trigger, edits that keep the plan uniform) and asserts that it does; the
  destinations still differ in socket mode, tap, checksum policy and
  pending reassembly buckets.  The fallback triggers (lossy, faulted,
  unrouted or mixed-latency pairs, an attached capture) are covered by
  the path choice and by conservation: every transmitted, undropped copy
  is either received or counted as a checksum failure.
* The drain's structured verify (header fields plus the payload's fold)
  must accept/reject exactly the datagrams the scalar
  ``HostDatapath.deliver`` verify accepts/rejects, byte-for-byte.
* One batch mixing socket-send datagrams (checksum offloaded, as
  ``Network.send_udp`` builds them) with spray datagrams that share one
  payload object under valid, corrupted, zero and wrong-length headers
  must be event-for-event equal to injecting the same packets, each
  socket send under its computed checksum, with verification switched
  mid-flight.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.burst import DatagramBatch
from repro.netsim.capture import PacketCapture
from repro.netsim.faults import Corruption, Duplication, GilbertElliott, ReorderJitter
from repro.netsim.packet import IPProtocol, IPv4Packet
from repro.netsim.host import OSProfile
from repro.netsim.simulator import Simulator
from repro.netsim.network import Link, Network
from repro.netsim.udp import (
    UDP_HEADER_LEN,
    UDPDatagram,
    _UDP_HEADER,
    encode_udp,
    udp_checksum_arith,
)


# ------------------------------------------------------------------ sprays
SPRAY_SRC = "192.0.2.150"  # the spoofed victim: no host behind it
SPRAY_DSTS = ("10.7.0.1", "10.7.0.2", "10.7.0.3", "10.7.0.4", "10.7.0.5", "10.7.0.6")
UNROUTED_DST = "10.7.9.9"
SPRAY_PORT = 123

#: Fallback triggers: a capture forces the materialised path for every
#: spray, the others for sprays that touch their pair (unrouted pairs come
#: from the destinations themselves).
TRIGGERS = ("lossy", "faulted", "mixed", "capture")
#: Destination-level configurations every world carries, because they keep
#: the spray entry but change how its drain delivers: an inbox-mode socket,
#: a packet tap, a host that does not verify checksums (the drain's
#: ``verify_checksum`` false branch), and expired reassembly buckets that the
#: next arrival sweeps.
INBOX_DST, TAP_DST, UNVERIFIED_DST, SWEPT_DST = (
    SPRAY_DSTS[0],
    SPRAY_DSTS[4],
    SPRAY_DSTS[5],
    SPRAY_DSTS[1],
)


class SprayWorld:
    """Six NTP-port receivers behind one spoofed source, plus the triggers."""

    def __init__(self, triggers) -> None:
        self.simulator = simulator = Simulator(seed=21)
        self.network = network = Network(simulator, default_latency=0.01)
        self.received: list = []
        self.tapped: list = []
        self.inboxes: list = []
        for ip in SPRAY_DSTS:
            if ip == INBOX_DST:
                self.inboxes.append(network.add_host(f"s-{ip}", ip).bind(SPRAY_PORT))
            elif ip == UNVERIFIED_DST:
                self.add_receiver(ip, OSProfile(verify_udp_checksum=False))
            else:
                self.add_receiver(ip)
        network.host(TAP_DST).packet_tap = lambda packet: self.tapped.append(
            (
                simulator.now,
                packet.src,
                packet.dst,
                packet.payload,
                packet.ipid,
                packet.metadata.get("spoofed"),
            )
        )
        for ip in (SWEPT_DST, UNVERIFIED_DST):
            network.host(ip).defrag.add_fragment(
                IPv4Packet(
                    src=SPRAY_SRC,
                    dst=ip,
                    protocol=IPProtocol.UDP,
                    payload=b"\x00" * 16,
                    ipid=999,
                    more_fragments=True,
                ),
                simulator.now,
            )
        simulator.run_for(40.0)  # past the reassembly timeout
        if "lossy" in triggers:
            network.set_link(SPRAY_SRC, SPRAY_DSTS[2], Link(loss_probability=0.4))
        if "faulted" in triggers:
            network.set_link_faults(
                SPRAY_SRC,
                SPRAY_DSTS[2],
                GilbertElliott(p_enter_bad=0.3, p_exit_bad=0.4, loss_bad=0.6),
                Corruption(0.3),
                Duplication(0.3, max_delay=0.002),
                ReorderJitter(0.3, max_delay=0.003),
            )
        if "mixed" in triggers:
            network.set_link(SPRAY_SRC, SPRAY_DSTS[3], Link(latency=0.5))
        self.capture = None
        if "capture" in triggers:
            self.capture = PacketCapture(name="spray")
            network.attach_capture(self.capture)

    def add_receiver(self, ip: str, profile: OSProfile | None = None) -> None:
        simulator = self.simulator
        self.network.add_host(f"s-{ip}", ip, profile=profile).bind(
            SPRAY_PORT,
            lambda payload, src, port, _ip=ip: self.received.append(
                (simulator.now, _ip, payload, src, port)
            ),
        )

    def edit(self, edit) -> None:
        """A topology edit between rounds (each must retire cached plans)."""
        network = self.network
        if edit == "set_link":
            latency = network.link_between(SPRAY_SRC, SPRAY_DSTS[3]).latency
            network.set_link(
                SPRAY_SRC, SPRAY_DSTS[3], Link(latency=0.02 if latency == 0.01 else 0.01)
            )
        elif edit == "add_host" and not network.has_host(UNROUTED_DST):
            self.add_receiver(UNROUTED_DST)
        elif edit == "invalidate":
            network.invalidate_pipelines()
        elif edit == "retime":  # every destination at one new latency
            latency = network.link_between(SPRAY_SRC, SPRAY_DSTS[0]).latency
            for dst in SPRAY_DSTS:
                network.set_link(
                    SPRAY_SRC, dst, Link(latency=0.03 if latency == 0.01 else 0.01)
                )

    def send_round(self, size: int, specs, first_index: int, use_spray: bool) -> None:
        """One round: a ``size``-byte payload to ``(destination index,
        checksum kind)`` per datagram.  The spray carries the payload once
        and one checksum per destination; the reference injects each
        datagram as a packet built by ``encode_udp``."""
        body = bytes((first_index * 31 + b) & 0xFF for b in range(size))
        destinations, datagrams, ipids = [], [], []
        for offset, (dst_i, kind) in enumerate(specs):
            dst = UNROUTED_DST if dst_i == len(SPRAY_DSTS) else SPRAY_DSTS[dst_i]
            checksum_src = "9.9.9.9" if kind == "corrupt" else SPRAY_SRC
            datagram = encode_udp(
                checksum_src, dst, UDPDatagram(SPRAY_PORT, SPRAY_PORT, body)
            )
            if kind == "zero":  # "not checksummed"
                datagram = datagram[:6] + b"\x00\x00" + datagram[8:]
            destinations.append(dst)
            datagrams.append(datagram)
            ipids.append((first_index + offset) & 0xFFFF)
        network = self.network
        if use_spray:
            network.transmit_spray(
                SPRAY_SRC,
                tuple(destinations),
                SPRAY_PORT,
                SPRAY_PORT,
                body,
                [int.from_bytes(datagram[6:8], "big") for datagram in datagrams],
                ipids,
            )
        else:
            for dst, datagram, ipid in zip(destinations, datagrams, ipids):
                network.inject(IPv4Packet.udp(SPRAY_SRC, dst, datagram, ipid))

    def takes_spray_entry(self) -> bool:
        return any(
            isinstance(entry[2], DatagramBatch) and entry[2].spoofed
            for entry in self.simulator._queue
        )

    def state(self) -> dict:
        simulator, network = self.simulator, self.network
        return {
            "received": list(self.received),
            "tapped": list(self.tapped),
            "inbox": [
                (d.payload, d.src_ip, d.src_port, d.received_at)
                for socket in self.inboxes
                for d in socket.inbox
            ],
            "captured": None
            if self.capture is None
            else [
                (
                    c.time,
                    c.packet.src,
                    c.packet.dst,
                    c.packet.payload,
                    c.packet.ipid,
                    c.packet.metadata.get("spoofed"),
                )
                for c in self.capture.packets
            ],
            "now": simulator.now,
            "sequence": simulator._sequence,
            "events_processed": simulator.events_processed,
            "transmitted": network.packets_transmitted,
            "dropped": network.packets_dropped,
            "loss_rng": network._rng.bit_generator.state,
            "host_stats": [
                (
                    host.ip,
                    host.stats.udp_received,
                    host.stats.udp_checksum_failures,
                    len(host.defrag._buckets),
                    host.defrag.stats.buckets_expired,
                )
                for host in network.hosts()
            ],
            "faults": {
                pair: stats.to_document()
                for pair, stats in network.per_pair_fault_stats().items()
            },
        }


def run_spray_rounds(
    triggers, rounds, use_spray: bool, every_round_batched: bool = False
) -> SprayWorld:
    world = SprayWorld(triggers)
    index = 0
    for (size, specs), edit in rounds:
        world.edit(edit)
        world.send_round(size, specs, index, use_spray)
        if every_round_batched:
            assert world.takes_spray_entry() == use_spray
        index += len(specs)
        world.simulator.run_for(1.0)
    world.simulator.run()
    return world


def spray_rounds(last_dst: int, edits: list):
    """Rounds, each preceded by an optional topology edit from ``edits``.

    A round is (payload length — empty, odd and even —, its datagrams); one
    datagram is (destination index up to ``last_dst`` — ``len(SPRAY_DSTS)``
    is the unrouted one —, checksum kind).
    """
    datagram = st.tuples(
        st.integers(min_value=0, max_value=last_dst),
        st.sampled_from(["ok", "ok", "corrupt", "zero"]),
    )
    round_ = st.tuples(
        st.integers(min_value=0, max_value=61),
        st.lists(datagram, min_size=1, max_size=10),
    )
    return st.lists(
        st.tuples(round_, st.sampled_from(edits)),
        min_size=1,
        max_size=4,
    )


#: Any rounds, fallback triggers included.
any_rounds = spray_rounds(
    len(SPRAY_DSTS), [None, None, "set_link", "add_host", "invalidate"]
)
#: Rounds a uniform plan carries: routed destinations only, and only edits
#: after which every pair still shares one latency.
uniform_rounds = spray_rounds(
    len(SPRAY_DSTS) - 1, [None, None, "retime", "add_host", "invalidate"]
)


class TestTransmitSprayEquivalence:
    @given(uniform_rounds)
    @settings(max_examples=150, deadline=None)
    def test_spray_is_event_for_event_equivalent_to_injects(self, rounds):
        sprayed = run_spray_rounds(set(), rounds, True, every_round_batched=True)
        injected = run_spray_rounds(set(), rounds, False, every_round_batched=True)
        assert sprayed.state() == injected.state()

    @given(st.sets(st.sampled_from(TRIGGERS)), any_rounds)
    @settings(max_examples=60, deadline=None)
    def test_spray_conserves_datagrams(self, triggers, rounds):
        """Σ(udp_received + udp_checksum_failures) == transmitted − dropped
        (+ fault duplicates, the only way one send arrives twice)."""
        world = run_spray_rounds(triggers, rounds, use_spray=True)
        network = world.network
        arrived = sum(
            host.stats.udp_received + host.stats.udp_checksum_failures
            for host in network.hosts()
        )
        assert arrived == (
            network.packets_transmitted
            - network.packets_dropped
            + network.fault_stats().duplicated
        )

    @pytest.mark.parametrize(
        "trigger, takes_spray",
        [
            (None, True),
            ("lossy", False),
            ("faulted", False),
            ("mixed", False),
            ("capture", False),
            ("unrouted", False),
        ],
    )
    def test_plan_picks_the_path(self, trigger, takes_spray):
        world = SprayWorld({trigger})
        specs = [(i, "ok") for i in range(len(SPRAY_DSTS))]
        if trigger == "unrouted":
            specs.append((len(SPRAY_DSTS), "ok"))
        world.send_round(48, specs, 0, use_spray=True)
        assert world.takes_spray_entry() == takes_spray

    def test_topology_edits_retire_cached_plans(self):
        world = SprayWorld(set())
        specs = [(3, "ok"), (len(SPRAY_DSTS), "ok")]
        world.send_round(48, specs, 0, use_spray=True)
        assert not world.takes_spray_entry()  # unrouted: fallback
        world.simulator.run()
        world.edit("add_host")
        world.send_round(48, specs, 2, use_spray=True)
        assert world.takes_spray_entry()  # the same spray, now uniform
        world.simulator.run()
        assert [entry[1] for entry in world.received] == [SPRAY_DSTS[3]] * 2 + [
            UNROUTED_DST
        ]
        world.edit("set_link")  # SPRAY_DSTS[3] now slower than UNROUTED_DST
        world.send_round(48, specs, 4, use_spray=True)
        assert not world.takes_spray_entry()


# ------------------------------------------------------------ spray checksum
class TestSprayChecksumPinnedToScalar:
    @given(
        st.sampled_from(["10.0.0.1", "192.0.2.150", "255.255.255.254"]),
        st.integers(min_value=0, max_value=0xFFFF),
        st.binary(max_size=64),
        st.one_of(
            st.none(),
            st.sampled_from([0, 0xFFFF]),
            st.integers(min_value=0, max_value=0xFFFF),
        ),
        st.one_of(st.none(), st.integers(min_value=0, max_value=8 * 72 - 1)),
        st.one_of(st.none(), st.integers(min_value=UDP_HEADER_LEN, max_value=20)),
    )
    @settings(max_examples=300, deadline=None)
    def test_whole_datagram_fold_matches_scalar_verdict(
        self, src, sport, body, checksum, flip, cut
    ):
        """Random, bit-flipped and truncated datagrams, checksum fields 0
        and 0xFFFF, odd lengths: the drain's structured verify (header
        fields plus payload) and the scalar deliver accept, reject and hand
        over exactly the same datagrams.  A flipped length bit or a cut
        payload reaches the drain as a length field that disagrees with
        the payload; a structured datagram always has its header, so cuts
        stop at it."""
        dst = "203.0.113.7"
        datagram = bytearray(encode_udp(src, dst, UDPDatagram(sport, SPRAY_PORT, body)))
        if checksum is not None:
            datagram[6:8] = checksum.to_bytes(2, "big")
        if flip is not None:
            datagram[(flip // 8) % len(datagram)] ^= 1 << (flip % 8)
        if cut is not None:
            del datagram[cut:]
        datagram = bytes(datagram)

        def verdict(structured: bool):
            simulator = Simulator(seed=1)
            network = Network(simulator)
            host = network.add_host("receiver", dst)
            handed = []
            host.bind(SPRAY_PORT, lambda *args: handed.append(args))
            if structured:
                pipeline = network.pipeline_for(src, dst)
                fields = _UDP_HEADER.unpack_from(datagram)
                item = (pipeline, src, *fields, datagram[UDP_HEADER_LEN:], 7)
                simulator.post_burst_entry(
                    pipeline.latency, DatagramBatch(0.0, [item], 1, -1, True)
                )
            else:
                network.inject(IPv4Packet.udp(src, dst, datagram, 7))
            simulator.run()
            return host.stats.udp_received, host.stats.udp_checksum_failures, handed

        assert verdict(True) == verdict(False)


# --------------------------------------------------------------- mixed batch
#: The source of the socket-send datagrams in a mixed batch.
SENDER_IP = "10.7.0.200"
#: Spray checksum kinds: valid, computed for another source, "not
#: checksummed", and a length field off by ``LENGTH_ERRORS[kind]`` under a
#: checksum that is valid *for that wrong length* (so only the length check
#: can reject it).
SPRAY_KINDS = ("ok", "corrupt", "zero", "long", "short")
LENGTH_ERRORS = {"long": 1, "short": -1}


def mixed_item(network, entry, payloads, ipid: int) -> tuple:
    """One batch item, as the sender of its kind builds it.

    ``("send", dst index, payload index)`` is a socket send: its own
    source and ports, one of the round's payload objects and an offloaded
    checksum (``None``).  ``("spray", dst index, kind)`` is a spray
    datagram: the spoofed source and the round's shared payload object
    (``payloads[0]``) under a checksum of ``kind``.
    """
    sender, dst_i, arg = entry
    dst = SPRAY_DSTS[dst_i]
    if sender == "send":
        src, src_port, kind, payload = SENDER_IP, 5353, "ok", payloads[arg]
    else:
        src, src_port, kind, payload = SPRAY_SRC, SPRAY_PORT, arg, payloads[0]
    pipeline = network.pipeline_for(src, dst)
    length = UDP_HEADER_LEN + len(payload) + LENGTH_ERRORS.get(kind, 0)
    if sender == "send":
        checksum = None
    elif kind == "zero":
        checksum = 0
    else:
        total = (
            pipeline.address_sum
            + length
            + src_port
            + SPRAY_PORT
            + length
            + int.from_bytes(payload + b"\x00" * (len(payload) & 1), "big")
        )
        if kind == "corrupt":
            total += 1
        checksum = 0xFFFF - total % 0xFFFF
    return (pipeline, src, src_port, SPRAY_PORT, length, checksum, payload, ipid)


mixed_rounds = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=33), min_size=3, max_size=3),
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("send"),
                    st.integers(min_value=0, max_value=len(SPRAY_DSTS) - 1),
                    st.integers(min_value=0, max_value=2),
                ),
                st.tuples(
                    st.just("spray"),
                    st.integers(min_value=0, max_value=len(SPRAY_DSTS) - 1),
                    st.sampled_from(SPRAY_KINDS),
                ),
            ),
            min_size=1,
            max_size=14,
        ),
        st.booleans(),  # the batch's spoofed tag
        st.sets(st.integers(min_value=0, max_value=len(SPRAY_DSTS) - 1)),
    ),
    min_size=1,
    max_size=3,
)


def run_mixed_rounds(rounds, use_batch: bool) -> SprayWorld:
    world = SprayWorld(set())
    simulator, network = world.simulator, world.network
    ipid = 0
    for sizes, entries, spoofed, flipped in rounds:
        # Fresh objects per round; the spray's shared payload is index 0.
        payloads = [bytes((size * 7 + b) & 0xFF for b in range(size)) for size in sizes]
        items = []
        for entry in entries:
            items.append(mixed_item(network, entry, payloads, ipid))
            ipid += 1
        if use_batch:
            network.packets_transmitted += len(items)  # as both senders count
            simulator.post_burst_entry(
                0.01, DatagramBatch(simulator.now + 0.01, items, len(items), -1, spoofed)
            )
        else:
            for pipeline, src, sport, dport, length, checksum, payload, ip_id in items:
                dst = pipeline.datapath.host.ip
                if checksum is None:
                    checksum = udp_checksum_arith(src, dst, sport, dport, payload)
                header = _UDP_HEADER.pack(sport, dport, length, checksum)
                network.inject(
                    IPv4Packet.udp(src, dst, header + payload, ip_id),
                    mark_spoofed=spoofed,
                )
        for dst_i in flipped:  # verification switched while in flight
            host = network.host(SPRAY_DSTS[dst_i])
            host.profile = replace(
                host.profile, verify_udp_checksum=not host.profile.verify_udp_checksum
            )
            host.datapath.recompile()
        simulator.run_for(1.0)
    simulator.run()
    return world


class TestMixedBatch:
    @given(mixed_rounds)
    @settings(max_examples=200, deadline=None)
    def test_mixed_batch_is_event_for_event_equivalent_to_injects(self, rounds):
        """Socket-send datagrams and spray datagrams sharing one payload
        object in one batch, to tapped, inbox, unverified and swept hosts:
        the drain's fold memo, length check and padding give exactly the
        deliveries, rejections and tapped bytes of the inject loop."""
        batched = run_mixed_rounds(rounds, use_batch=True)
        injected = run_mixed_rounds(rounds, use_batch=False)
        assert batched.state() == injected.state()
