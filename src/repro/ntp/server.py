"""NTP servers (honest, rate-limiting, and attacker controlled).

A server binds UDP port 123 on a simulated host and answers mode 3 queries
with mode 4 responses timestamped by its own clock; every other mode,
ntpd's mode 6/7 configuration queries included, goes unanswered.  Two
behaviours matter to the paper and are configurable:

* **rate limiting** (with or without Kiss-o'-Death) — abused by the run-time
  attack and surveyed in section VII-A (38 % of pool servers rate limit,
  33 % send KoD), and
* **the reference-id leak** — a server synchronised to an upstream exposes
  that upstream's IPv4 address in its responses, which is how attack
  scenario P2 discovers a victim client's associations.

An *attacker* server is simply a server whose clock carries the desired time
shift (e.g. -500 s): a victim that synchronises to it inherits the shift.

Non-limiting pool servers answer every spoofed query of a flood, so the
answer is one compiled handler: the limiter check, the clock read, the
response spliced from the query's bytes and one socket send, with the
Kiss-o'-Death and sampled-drop branches off to the side.  The socket send
is one network frame (:meth:`repro.netsim.network.Network.send_udp`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.netsim.host import Host
from repro.netsim.simulator import Simulator
from repro.ntp.clock import SystemClock
from repro.ntp.packet import (
    KissCode,
    NTPPacket,
    NTP_PACKET_LEN,
    NTP_PORT,
    _server_response_wire,
)
from repro.ntp.rate_limit import RateLimitDecision, RateLimiter
from repro.perf import STAGES, perf_counter

#: Hoisted enum members: the handler compares these once per received
#: query, and the two attribute loads per compare are measurable there.
_DROP = RateLimitDecision.DROP
_RESPOND = RateLimitDecision.RESPOND


@dataclass
class NTPServerConfig:
    """Behavioural knobs for one NTP server.

    ``stratum``, ``upstream_server`` and ``respond_probability`` are read
    per query, so an in-place edit takes effect on the next one.  The limiter fields (``rate_limiting``,
    ``send_kod``, ``average_interval``, ``burst_tolerance``) configure the
    server's :class:`~repro.ntp.rate_limit.RateLimiter`: assigning a new
    config to :attr:`NTPServer.config` applies them, and after an in-place
    edit of one of them call :meth:`NTPServer.recompile`.  Either way the
    limiter keeps its per-source accounting.
    """

    stratum: int = 2
    rate_limiting: bool = False
    send_kod: bool = True
    average_interval: float = 8.0
    burst_tolerance: float = 100.0
    upstream_server: str = ""
    respond_probability: float = 1.0


@dataclass(slots=True)
class NTPServerStats:
    """Counters for tests and the measurement scans (slotted: bumped per query)."""

    queries_received: int = 0
    responses_sent: int = 0
    kods_sent: int = 0
    queries_dropped: int = 0


class NTPServer:
    """An NTP server instance bound to a simulated host."""

    def __init__(
        self,
        host: Host,
        simulator: Simulator,
        clock: Optional[SystemClock] = None,
        config: Optional[NTPServerConfig] = None,
        name: str = "",
    ) -> None:
        self.host = host
        self.simulator = simulator
        self.clock = clock or SystemClock(created_at=simulator.now)
        #: Backing attribute of :attr:`config`; the compiled handler reads
        #: it per query.
        self._config = config or NTPServerConfig()
        self.name = name or host.name
        self.stats = NTPServerStats()
        self.rate_limiter = RateLimiter()  # configured by recompile()
        self._rng = simulator.spawn_rng()
        self.socket = host.bind(NTP_PORT)
        #: The per-query handler, compiled once as a closure over the hot
        #: handles (stats block, simulator, limiter, clock, RNG, socket):
        #: a spoofing flood runs it hundreds of thousands of times per
        #: sweep, and the ``self`` attribute chases are measurable there.
        #: A caller that swaps ``rate_limiter``, ``clock`` or ``_rng``
        #: afterwards must call :meth:`recompile`.
        self.recompile()

    @property
    def config(self) -> NTPServerConfig:
        """The server's behaviour; assigning a new one applies it whole."""
        return self._config

    @config.setter
    def config(self, config: NTPServerConfig) -> None:
        self._config = config
        self.recompile()

    def recompile(self) -> None:
        """Re-apply the config's limiter fields and re-bind the compiled
        handler's hot handles (after an in-place edit of ``rate_limiting``,
        ``send_kod``, ``average_interval`` or ``burst_tolerance``, or after
        swapping ``rate_limiter``, ``clock`` or ``_rng``).  The limiter
        keeps its per-source state.  Mirrors
        :meth:`repro.netsim.datapath.HostDatapath.recompile`.
        """
        config = self._config
        limiter = self.rate_limiter
        limiter.enabled = config.rate_limiting
        limiter.send_kod = config.send_kod
        limiter.average_interval = config.average_interval
        limiter.burst_tolerance = config.burst_tolerance
        self._handler = self._compile_handler()
        self.socket.on_datagram = self._handler

    @classmethod
    def attacker_server(
        cls,
        host: Host,
        simulator: Simulator,
        time_shift: float,
        name: str = "attacker-ntp",
    ) -> "NTPServer":
        """Create a malicious server whose clock is shifted by ``time_shift``.

        The paper's lab evaluation uses a shift of -500 seconds; any victim
        client that adopts this server as its (majority) time source will
        converge to that shift.
        """
        clock = SystemClock(offset=time_shift, created_at=simulator.now)
        config = NTPServerConfig(stratum=2, rate_limiting=False)
        return cls(host, simulator, clock=clock, config=config, name=name)

    # -------------------------------------------------------------- serving
    def _compile_handler(self):
        """Build the per-query handler with the hot handles pre-bound.

        Routes on the mode bits alone and never decodes an answered query:
        the response is spliced from the query's bytes by
        :func:`repro.ntp.packet._server_response_wire` right here, and the
        reply goes straight to the socket — an answered query runs the
        limiter check, the clock read, the splice and the send, no other
        frame.  ``config`` is read at answer time (through its backing
        attribute, no property frame), so edits to it (or a replaced
        config) take effect on the next query.  The two guard
        tests reject exactly the payloads NTPPacket.decode() raises on
        (truncation, invalid mode 0), so the accounting that follows sees
        the same packets it always did and the Kiss-o'-Death decode cannot
        fail.  With ``STAGES`` on, the splice is timed as ``ntp_encode``,
        as :meth:`NTPPacket.server_response_wire` would time it.
        """
        server = self
        stats = self.stats
        simulator = self.simulator
        check = self.rate_limiter.check
        clock_time = self.clock.time
        random = self._rng.random
        sendto = self.socket.sendto
        send_kod = self._send_kod

        def on_packet(payload: bytes, src_ip: str, src_port: int) -> None:
            if len(payload) < NTP_PACKET_LEN:
                return
            if payload[0] & 0x7 != 3:  # NTPMode.CLIENT
                return
            stats.queries_received += 1
            now = simulator._now  # slot read; the property costs a frame here
            decision = check(src_ip, now)
            if decision is not _RESPOND:
                if decision is _DROP:
                    stats.queries_dropped += 1
                else:
                    send_kod(payload, src_ip, src_port)
                return
            config = server._config
            probability = config.respond_probability
            if probability < 1.0 and random() > probability:
                stats.queries_dropped += 1
                return
            stats.responses_sent += 1
            server_time = clock_time(now)
            if STAGES.enabled:
                started = perf_counter()
                wire = _server_response_wire(
                    payload, server_time, config.stratum, config.upstream_server
                )
                STAGES.add("ntp_encode", perf_counter() - started)
            else:
                wire = _server_response_wire(
                    payload, server_time, config.stratum, config.upstream_server
                )
            sendto(wire, src_ip, src_port)

        return on_packet

    def _send_kod(self, payload: bytes, src_ip: str, src_port: int) -> None:
        """Answer one query with a RATE Kiss-o'-Death."""
        self.stats.kods_sent += 1
        kod = NTPPacket.kiss_of_death(NTPPacket.decode(payload), KissCode.RATE)
        self.socket.sendto(kod.encode(), src_ip, src_port)

    # ----------------------------------------------------------- inspection
    def is_rate_limiting(self, client_ip: str) -> bool:
        """Whether ``client_ip`` is currently denied service."""
        return self.rate_limiter.is_limited(client_ip, self.simulator.now)
