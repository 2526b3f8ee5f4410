"""Property tests pinning the batched socket send to the packet path.

``Network.send_udp`` (the one send frame behind every ``UDPSocket.sendto``)
carries a datagram that fits its path MTU on a uniform pair as header
fields plus payload in a ``DatagramBatch``, its checksum offloaded to the
drain, which computes it only where a header is materialised (a tapped
destination).  Two properties pin it:

* the checksum a tap sees equals ``udp_checksum_arith`` — random
  addresses, ports and payloads, odd lengths, empty payloads, and payloads
  whose sum folds to zero (transmitted as ``0xFFFF``);
* it is event-for-event equivalent to the packet path.  Attaching a
  capture forces every send onto the packet path, so a world with a no-op
  capture is the oracle: handler and tap observations, socket inboxes,
  host stats, ``events_processed``, ``pending()`` (mid-flight too) and the
  network counters must match, over zero-latency links, with
  ``Simulator.post`` interleaved at the same instant, taps installed
  mid-flight and the strict simulator's invariant guards on.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.netsim.addresses import int_to_ip
from repro.netsim.capture import PacketCapture
from repro.netsim.host import OSProfile
from repro.netsim.network import Link, Network
from repro.netsim.simulator import Simulator
from repro.netsim.udp import _UDP_HEADER, _address_word_sum, udp_checksum_arith

# ----------------------------------------------------------------- checksum
addresses = st.integers(min_value=1, max_value=0xFFFFFFFE).map(int_to_ip)
ports = st.integers(min_value=0, max_value=0xFFFF)


def sent_datagram(src: str, dst: str, sport: int, dport: int, payload: bytes) -> bytes:
    """The datagram bytes ``Network.send_udp`` puts on a uniform pair, as the
    destination's tap sees them after the batch drain."""
    simulator = Simulator(seed=1)
    network = Network(simulator)
    sender = network.add_host("sender", src)
    receiver = network.add_host("receiver", dst)
    tapped = []
    receiver.packet_tap = lambda packet: tapped.append(packet.payload)
    network.send_udp(sender, dst, sport, dport, payload)
    assert simulator.bursts_posted == 1  # it travelled in a batch
    simulator.run()
    (datagram,) = tapped
    return datagram


class TestSendDatagramChecksum:
    @given(addresses, addresses, ports, ports, st.binary(max_size=97))
    @settings(max_examples=300, deadline=None)
    def test_checksum_matches_udp_checksum_arith(self, src, dst, sport, dport, payload):
        assume(src != dst)
        datagram = sent_datagram(src, dst, sport, dport, payload)
        assert datagram[8:] == payload
        _sport, _dport, length, checksum = _UDP_HEADER.unpack_from(datagram)
        assert length == 8 + len(payload)
        assert checksum == udp_checksum_arith(src, dst, sport, dport, payload)

    @given(ports, ports, st.binary(max_size=40), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_sum_folding_to_zero_is_sent_as_all_ones(self, sport, dport, prefix, odd):
        """A closing word chosen so the ones'-complement sum folds to zero:
        the checksum is transmitted as ``0xFFFF`` (RFC 768), never 0."""
        src, dst = "10.20.30.40", "192.0.2.77"
        if len(prefix) & 1:
            prefix += b"\x00"
        length = 8 + len(prefix) + 2 + (1 if odd else 0)
        words = int.from_bytes(prefix, "big") % 0xFFFF
        total = (
            _address_word_sum(src) + _address_word_sum(dst) + 17
            + length + length + sport + dport + words
        )
        closing = (0xFFFF - total % 0xFFFF) % 0xFFFF
        # An odd tail byte of zero pads to the word it already is.
        payload = prefix + closing.to_bytes(2, "big") + (b"\x00" if odd else b"")
        assert udp_checksum_arith(src, dst, sport, dport, payload) == 0xFFFF
        datagram = sent_datagram(src, dst, sport, dport, payload)
        assert _UDP_HEADER.unpack_from(datagram)[3] == 0xFFFF


# -------------------------------------------------------------- equivalence
IPS = ("10.1.0.1", "10.1.0.2", "10.1.0.3", "10.1.0.4")
UNROUTED = "10.1.9.9"
PORT = 7
#: Host 2 keeps an inbox-mode socket, host 3 does not verify checksums.
INBOX_HOST, UNVERIFIED_HOST = 2, 3


class EchoWorld:
    """Four hosts that log every datagram and echo it on while hops remain.

    A datagram's first byte is its remaining hop count: a handler that
    receives a non-zero count replies to the sender with one hop less and,
    on an even count, also forwards to the next host — so replies leave
    from inside batch drains, over zero-latency links too.
    """

    def __init__(self, oracle: bool) -> None:
        self.simulator = simulator = Simulator(seed=5, strict=True)
        self.network = network = Network(simulator, default_latency=0.01)
        self.log: list = []
        self.sockets = []
        for index, ip in enumerate(IPS):
            verify = index != UNVERIFIED_HOST
            host = network.add_host(
                f"h{index}", ip, profile=OSProfile(verify_udp_checksum=verify)
            )
            handler = None if index == INBOX_HOST else self.echo(index)
            self.sockets.append(host.bind(PORT, handler))
        network.set_link(IPS[0], IPS[1], Link(latency=0.0))
        network.set_link(IPS[1], IPS[2], Link(latency=0.0))
        network.set_link(IPS[1], IPS[3], Link(latency=0.02))
        if oracle:
            network.attach_capture(PacketCapture(capture_filter=lambda packet: False))

    def echo(self, index: int):
        simulator = self.simulator

        def on_datagram(payload: bytes, src: str, port: int) -> None:
            self.log.append(("rx", simulator.now, IPS[index], payload, src, port))
            hops = payload[0] if payload else 0
            if hops:
                reply = bytes([hops - 1]) + payload[1:]
                self.sockets[index].sendto(reply, src, port)
                if hops % 2 == 0:
                    self.sockets[index].sendto(reply, IPS[(index + 1) % len(IPS)], PORT)

        return on_datagram

    def fire(self, index, kind, sender, target, hops, size) -> None:
        simulator = self.simulator
        if kind == "send":
            dst = UNROUTED if target == len(IPS) else IPS[target]
            body = bytes((index * 7 + offset) & 0xFF for offset in range(size))
            self.sockets[sender].sendto(bytes([hops]) + body, dst, PORT)
        elif kind == "post":
            simulator.post(0.01 * (hops % 2), self.log.append, ("post", index))
        else:  # install a tap mid-flight
            host = self.network.host(IPS[target % len(IPS)])
            host.packet_tap = lambda packet: self.log.append(
                (
                    "tap",
                    simulator.now,
                    packet.src,
                    packet.dst,
                    packet.payload,
                    packet.ipid,
                    packet.metadata.get("spoofed"),
                )
            )

    def run(self, actions) -> dict:
        simulator = self.simulator
        for index, (at, *action) in enumerate(actions):
            simulator.schedule_at(at, self.fire, args=(index, *action))
        simulator.run(until=0.015)
        midway = (simulator.pending(), simulator.events_processed)
        simulator.run()
        network = self.network
        return {
            "log": self.log,
            "midway": midway,
            "inbox": [
                (d.payload, d.src_ip, d.src_port, d.received_at)
                for d in self.sockets[INBOX_HOST].inbox
            ],
            "stats": [host.stats for host in network.hosts()],
            "events_processed": simulator.events_processed,
            "pending": simulator.pending(),
            "sequence": simulator._sequence,
            "now": simulator.now,
            "transmitted": network.packets_transmitted,
            "dropped": network.packets_dropped,
        }


actions = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.01, 0.02]),
        st.sampled_from(["send", "send", "send", "post", "tap"]),
        st.integers(min_value=0, max_value=len(IPS) - 1),
        st.integers(min_value=0, max_value=len(IPS)),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=33),
    ),
    min_size=1,
    max_size=14,
)


class TestSendDatagramEquivalence:
    @given(actions)
    @settings(max_examples=150, deadline=None)
    def test_bytes_path_is_event_for_event_equivalent_to_packets(self, plan):
        assert EchoWorld(oracle=False).run(plan) == EchoWorld(oracle=True).run(plan)

    def test_same_instant_sends_share_one_batch(self):
        for oracle, bursts in ((False, 1), (True, 0)):
            world = EchoWorld(oracle)
            for _ in range(3):
                world.sockets[0].sendto(b"\x00", IPS[3], PORT)
            assert world.simulator.bursts_posted == bursts
            assert world.simulator.pending() == 3
            world.simulator.run()
            assert world.network.host(IPS[3]).stats.udp_received == 3
