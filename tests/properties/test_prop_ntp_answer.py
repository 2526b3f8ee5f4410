"""Property tests pinning the NTP server's answer path.

An answered query runs inside the server's compiled handler: the limiter
check, the clock read, the response splice and one socket send, which
``Network.send_udp`` turns into a batched datagram or, past the path MTU,
into fragments.  Over small worlds of one server and two clients this
suite checks that:

* every reply is the reference encoding: a mode 4 response equals
  ``NTPPacket.server_response(decode(query), ...).encode()`` with the
  server's clock and the config in force when it answered, a Kiss-o'-Death
  equals ``NTPPacket.kiss_of_death(decode(query)).encode()``, and a mode
  6/7 query gets no answer;
* running with the ``STAGES`` counters on changes nothing: reply bytes,
  taps, server, host and network stats, limiter state and the server RNG
  position all match a run with them off, and every encode is counted.

The worlds draw stratum, upstream, ``respond_probability``, the limiter
(with and without KoD), clock offset and drift; the actions edit or
replace ``config`` between answers, install taps mid-flight, and shrink
the server's path MTU towards a client so its replies fragment.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.icmp import frag_needed
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator
from repro.ntp.clock import SystemClock
from repro.ntp.packet import NTPPacket, NTP_PORT
from repro.ntp.server import NTPServer, NTPServerConfig
from repro.perf import STAGES

SERVER_IP = "10.3.0.1"
CLIENT_IPS = ("10.3.0.2", "10.3.0.3")
CLIENT_PORT = 40123
LATENCY = 0.01
#: Queries leave on the tenth-second grid and are answered LATENCY later;
#: edits, taps and PMTU messages land half a tick off it, so no config edit
#: shares an instant with an answer.
TICK, OFF_GRID = 0.1, 0.05
UPSTREAMS = ("", "192.0.2.7", "198.51.100.200")


class AnswerWorld:
    """One NTP server answering two clients; logs what the clients see."""

    def __init__(self, draw: dict) -> None:
        self.simulator = simulator = Simulator(seed=draw["seed"])
        self.network = network = Network(simulator, default_latency=LATENCY)
        config = NTPServerConfig(
            stratum=draw["stratum"],
            upstream_server=draw["upstream"],
            respond_probability=draw["probability"],
            rate_limiting=draw["limiting"],
            send_kod=draw["kod"],
            burst_tolerance=20.0,
        )
        clock = SystemClock(offset=draw["offset"], drift_ppm=draw["drift"])
        self.server = NTPServer(
            network.add_host("server", SERVER_IP), simulator, clock=clock, config=config
        )
        #: (time, stratum, upstream) from construction on, one per edit.
        self.configs = [(-1.0, config.stratum, config.upstream_server)]
        self.queries: dict[bytes, tuple[float, bytes]] = {}
        self.received: list = []
        self.tapped: list = []
        self.clients = []
        self.sockets = []
        for index, ip in enumerate(CLIENT_IPS):
            host = network.add_host(f"client{index}", ip)
            socket = host.bind(
                CLIENT_PORT,
                lambda payload, src, port, _ip=ip: self.received.append(
                    (simulator.now, _ip, payload, src, port)
                ),
            )
            self.clients.append(host)
            self.sockets.append(socket)

    # ------------------------------------------------------------- actions
    def query(self, index: int, client: int, poll: int) -> None:
        wire = bytearray(NTPPacket.client_query_wire(1_700_000_000.0 + index))
        wire[2] = poll
        wire = bytes(wire)
        self.queries[wire[40:48]] = (self.simulator.now, wire)
        self.sockets[client].sendto(wire, SERVER_IP, NTP_PORT)

    def control(self, client: int, mode: int) -> None:
        payload = bytes([0x20 | mode]) + b"\x00" * 47
        self.sockets[client].sendto(payload, SERVER_IP, NTP_PORT)

    def edit(self, which: int, value: int) -> None:
        server = self.server
        if which == 0:
            server.config.stratum = 1 + value % 15
        elif which == 1:
            server.config.upstream_server = UPSTREAMS[value % len(UPSTREAMS)]
        elif which == 2:
            server.config.respond_probability = (1.0, 0.5, 0.0)[value % 3]
        else:  # a replaced config object
            server.config = NTPServerConfig(
                stratum=2 + value % 13,
                upstream_server=UPSTREAMS[value % len(UPSTREAMS)],
            )
        config = server.config
        self.configs.append((self.simulator.now, config.stratum, config.upstream_server))

    def tap(self, client: int) -> None:
        simulator = self.simulator
        self.clients[client].packet_tap = lambda packet: self.tapped.append(
            (
                simulator.now,
                packet.src,
                packet.dst,
                packet.payload,
                packet.ipid,
                packet.more_fragments,
                packet.fragment_offset,
            )
        )

    def shrink_mtu(self, client: int) -> None:
        """The server learns a 68-byte path MTU towards ``client``: its
        76-byte replies there leave as two fragments."""
        self.clients[client].send_icmp(SERVER_IP, frag_needed(68))

    def fire(self, index: int, kind: str, client: int, arg: int) -> None:
        if kind == "query":
            self.query(index, client, arg)
        elif kind == "control":
            self.control(client, 6 + arg % 2)
        elif kind == "edit":
            self.edit(arg % 4, arg // 4)
        elif kind == "tap":
            self.tap(client)
        else:
            self.shrink_mtu(client)

    # ----------------------------------------------------------------- run
    def run(self, actions) -> dict:
        simulator = self.simulator
        for index, (slot, kind, client, arg) in enumerate(actions):
            at = slot * TICK + (0.0 if kind in ("query", "control") else OFF_GRID)
            simulator.schedule_at(at, self.fire, args=(index, kind, client, arg))
        simulator.run()
        server, network = self.server, self.network
        limiter = server.rate_limiter
        return {
            "received": self.received,
            "tapped": self.tapped,
            "server": server.stats,
            "hosts": [(host.ip, host.stats) for host in network.hosts()],
            "transmitted": network.packets_transmitted,
            "dropped": network.packets_dropped,
            "bursts": simulator.bursts_posted,
            "events": simulator.events_processed,
            "sequence": simulator._sequence,
            "limiter": (
                limiter.queries_seen,
                limiter.queries_dropped,
                limiter.kods_sent,
                {
                    ip: (s.last_seen, s.score, s.kod_sent, s.drops)
                    for ip, s in limiter.sources.items()
                },
            ),
            "rng": server._rng.bit_generator.state,
        }

    # ----------------------------------------------------------- reference
    def config_at(self, time: float) -> tuple[int, str]:
        stratum, upstream = None, None
        for edited, edited_stratum, edited_upstream in self.configs:
            if edited < time:
                stratum, upstream = edited_stratum, edited_upstream
        return stratum, upstream

    def expected_reply(self, received_at: float, payload: bytes) -> bytes:
        """The reference encoding of one reply the clients received."""
        sent_at, query_wire = self.queries[payload[24:32]]
        query = NTPPacket.decode(query_wire)
        if payload[1] == 0:
            return NTPPacket.kiss_of_death(query).encode()
        answered_at = sent_at + LATENCY
        stratum, upstream = self.config_at(answered_at)
        return NTPPacket.server_response(
            query, self.server.clock.time(answered_at), stratum, upstream
        ).encode()


worlds = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**16),
        "stratum": st.integers(min_value=1, max_value=15),
        "upstream": st.sampled_from(UPSTREAMS),
        "probability": st.sampled_from([1.0, 1.0, 0.6, 0.0]),
        "limiting": st.booleans(),
        "kod": st.booleans(),
        "offset": st.floats(min_value=-1000.0, max_value=1000.0),
        "drift": st.floats(min_value=-50.0, max_value=50.0),
    }
)
actions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20),
        st.sampled_from(
            ["query", "query", "query", "query", "control", "edit", "tap", "mtu"]
        ),
        st.integers(min_value=0, max_value=len(CLIENT_IPS) - 1),
        st.integers(min_value=0, max_value=31),
    ),
    min_size=1,
    max_size=24,
)


def run_world(draw: dict, plan, staged: bool) -> tuple[AnswerWorld, dict]:
    world = AnswerWorld(draw)
    if not staged:
        return world, world.run(plan)
    STAGES.reset()
    STAGES.enable()
    try:
        state = world.run(plan)
        _times, calls = STAGES.merged()
    finally:
        STAGES.disable()
        STAGES.reset()
    stats = state["server"]
    assert calls.get("ntp_encode", 0) == stats.responses_sent + stats.kods_sent
    return world, state


class TestAnswerPath:
    @given(worlds, actions)
    @settings(max_examples=150, deadline=None)
    def test_replies_match_the_reference_encoding(self, draw, plan):
        world, state = run_world(draw, plan, staged=False)
        for received_at, _client, payload, src, port in state["received"]:
            assert (src, port) == (SERVER_IP, NTP_PORT)
            assert payload == world.expected_reply(received_at, payload)
        stats = state["server"]
        assert len(state["received"]) == stats.responses_sent + stats.kods_sent

    @given(worlds, actions)
    @settings(max_examples=100, deadline=None)
    def test_stage_counters_change_nothing(self, draw, plan):
        _world, off = run_world(draw, plan, staged=False)
        _world, on = run_world(draw, plan, staged=True)
        assert on == off

    def test_small_path_mtu_fragments_the_reply(self):
        """The fragment branch is reached: two fragments, one reply."""
        draw = {
            "seed": 1, "stratum": 2, "upstream": "192.0.2.7", "probability": 1.0,
            "limiting": False, "kod": False, "offset": -500.0, "drift": 0.0,
        }
        world, state = run_world(draw, [(0, "mtu", 0, 0), (1, "query", 0, 6)], False)
        server_host = world.network.host(SERVER_IP)
        assert server_host.stats.packets_fragmented == 1
        (reply,) = state["received"]
        assert reply[2] == world.expected_reply(reply[0], reply[2])
        assert world.simulator.bursts_posted == 1  # only the query was a batch
