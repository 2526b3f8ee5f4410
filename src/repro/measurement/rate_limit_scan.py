"""Rate-limiting scan of pool NTP servers (paper section VII-A).

The scan runs against *real simulated NTP servers* (built by
:func:`repro.ntp.pool.build_pool_population`), reproducing the paper's
methodology exactly:

* query every server 64 times, once per second, from the scanner host,
* flag a server as sending Kiss-o'-Death if any response is a KoD packet,
* flag a server as rate limiting if it answered at least 8 more of the
  queries in the first half of the test than in the second half (this
  absorbs packet loss and servers that still answer a trickle while
  limiting).

The paper found 33 % KoD senders and 38 % rate limiters among 2432 servers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.netsim.host import Host
from repro.netsim.simulator import Simulator
from repro.ntp.errors import NTPPacketError
from repro.ntp.packet import NTPMode, NTPPacket, NTP_PORT


@dataclass
class ServerScanResult:
    """Per-server outcome of the scan."""

    server_ip: str
    responses_first_half: int = 0
    responses_second_half: int = 0
    kod_received: bool = False

    @property
    def rate_limiting(self) -> bool:
        """The paper's classifier: >= 8 fewer responses in the second half."""
        return self.responses_first_half - self.responses_second_half > 8


@dataclass
class RateLimitScanReport:
    """Aggregate result of the scan (section VII-A)."""

    servers_scanned: int
    kod_servers: int
    rate_limiting_servers: int
    results: list[ServerScanResult] = field(default_factory=list)

    @property
    def kod_fraction(self) -> float:
        """Fraction of servers that sent a Kiss-o'-Death packet."""
        return self.kod_servers / self.servers_scanned if self.servers_scanned else 0.0

    @property
    def rate_limiting_fraction(self) -> float:
        """Fraction of servers classified as rate limiting."""
        return (
            self.rate_limiting_servers / self.servers_scanned
            if self.servers_scanned
            else 0.0
        )


class RateLimitScan:
    """Probes a list of NTP servers for rate limiting from a scanner host."""

    def __init__(
        self,
        scanner_host: Host,
        simulator: Simulator,
        server_ips: list[str],
        queries_per_server: int = 64,
        query_interval: float = 1.0,
        concurrent_servers: int = 64,
    ) -> None:
        self.host = scanner_host
        self.simulator = simulator
        self.server_ips = list(server_ips)
        self.queries_per_server = queries_per_server
        self.query_interval = query_interval
        #: How many servers are probed in parallel; probing all of
        #: pool.ntp.org strictly sequentially would take 2432 * 64 seconds.
        self.concurrent_servers = concurrent_servers
        self.results: dict[str, ServerScanResult] = {}
        self._on_done: Optional[Callable[[RateLimitScanReport], None]] = None
        self._in_flight = 0
        self._next_index = 0

    # ------------------------------------------------------------------ run
    def start(self, on_done: Optional[Callable[[RateLimitScanReport], None]] = None) -> None:
        """Begin scanning; ``on_done`` fires when every server finished."""
        self._on_done = on_done
        for _ in range(min(self.concurrent_servers, len(self.server_ips))):
            self._start_next_server()

    def run(self) -> RateLimitScanReport:
        """Convenience wrapper: start, run the simulator to completion, report."""
        done: list[RateLimitScanReport] = []
        self.start(on_done=done.append)
        # Worst case: every server takes the full probe duration.
        batches = (len(self.server_ips) + self.concurrent_servers - 1) // max(
            1, self.concurrent_servers
        )
        self.simulator.run_for(
            batches * (self.queries_per_server * self.query_interval + 10.0) + 10.0
        )
        return done[0] if done else self.report()

    def _start_next_server(self) -> None:
        if self._next_index >= len(self.server_ips):
            return
        server_ip = self.server_ips[self._next_index]
        self._next_index += 1
        self._in_flight += 1
        self._probe_server(server_ip)

    def _probe_server(self, server_ip: str) -> None:
        result = ServerScanResult(server_ip=server_ip)
        self.results[server_ip] = result
        socket = self.host.bind(0)
        half = self.queries_per_server // 2
        sent = {"count": 0}

        def on_datagram(payload: bytes, src_ip: str, src_port: int) -> None:
            if src_ip != server_ip:
                return
            try:
                packet = NTPPacket.decode(payload)
            except NTPPacketError:
                return
            if packet.mode is not NTPMode.SERVER:
                return
            if packet.is_kiss_of_death:
                result.kod_received = True
                return
            if sent["count"] <= half:
                result.responses_first_half += 1
            else:
                result.responses_second_half += 1

        socket.on_datagram = on_datagram

        def send_next() -> None:
            if sent["count"] >= self.queries_per_server:
                self.simulator.schedule(2.0, finish)
                return
            sent["count"] += 1
            query = NTPPacket.client_query(self.simulator.now)
            socket.sendto(query.encode(), server_ip, NTP_PORT)
            self.simulator.schedule(self.query_interval, send_next)

        def finish() -> None:
            socket.close()
            self._in_flight -= 1
            self._start_next_server()
            if self._in_flight == 0 and self._next_index >= len(self.server_ips):
                if self._on_done is not None:
                    self._on_done(self.report())

        send_next()

    # --------------------------------------------------------------- report
    def report(self) -> RateLimitScanReport:
        """Aggregate the per-server results."""
        results = list(self.results.values())
        return RateLimitScanReport(
            servers_scanned=len(results),
            kod_servers=sum(1 for r in results if r.kod_received),
            rate_limiting_servers=sum(1 for r in results if r.rate_limiting),
            results=results,
        )
