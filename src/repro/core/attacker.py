"""The off-path attacker's resources.

The attacker owns:

* a *querying host* from which it sends its own legitimate-looking traffic
  (DNS queries to learn response templates and sample IPIDs, NTP queries to
  probe rate limiting or read a victim's reference id),
* a pool of routable addresses it controls, on which it can stand up
  malicious NTP servers whose clocks carry the desired time shift, and
* the ability to *inject* packets with arbitrary (spoofed) source addresses
  into the network.

What the attacker explicitly does **not** have is visibility into traffic
between other hosts: it never holds a packet capture.  Everything it learns,
it learns from packets addressed to hosts it owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.netsim.addresses import address_range
from repro.netsim.host import Host
from repro.netsim.network import Network
from repro.netsim.packet import IPv4Packet
from repro.netsim.simulator import Simulator
from repro.ntp.server import NTPServer

#: Time shift applied by the malicious NTP servers in the paper's lab runs.
DEFAULT_TIME_SHIFT = -500.0


@dataclass
class AttackerResources:
    """Static description of what the attacker controls."""

    query_address: str = "66.0.0.1"
    address_pool_start: str = "66.6.6.1"
    address_pool_size: int = 100
    time_shift: float = DEFAULT_TIME_SHIFT
    malicious_ntp_servers: int = 4


@dataclass(slots=True)
class AttackerStats:
    """Counters describing the attack volume (the paper keeps it low).

    Slotted: the spoofing loops bump these once per crafted packet.
    """

    packets_injected: int = 0
    spoofed_fragments_sent: int = 0
    spoofed_ntp_queries_sent: int = 0
    icmp_errors_sent: int = 0
    own_queries_sent: int = 0


class Attacker:
    """An off-path attacker attached to a simulated network."""

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        resources: Optional[AttackerResources] = None,
    ) -> None:
        self.simulator = simulator
        self.network = network
        self.resources = resources or AttackerResources()
        self.stats = AttackerStats()
        self.query_host: Host = network.add_host(
            "attacker-query", self.resources.query_address
        )
        self.address_pool: list[str] = address_range(
            self.resources.address_pool_start, self.resources.address_pool_size
        )
        self.ntp_servers: dict[str, NTPServer] = {}
        for address in self.address_pool[: self.resources.malicious_ntp_servers]:
            host = network.add_host(f"attacker-ntp-{address}", address)
            self.ntp_servers[address] = NTPServer.attacker_server(
                host, simulator, time_shift=self.resources.time_shift
            )

    # ------------------------------------------------------------ addresses
    @property
    def controlled_addresses(self) -> set[str]:
        """Every address the attacker controls (pool + querying host)."""
        return set(self.address_pool) | {self.query_host.ip}

    def ntp_server_addresses(self) -> list[str]:
        """Addresses running a malicious NTP server right now."""
        return list(self.ntp_servers)

    def add_ntp_server(self, address: str) -> NTPServer:
        """Stand up an additional malicious NTP server on a pool address."""
        if address in self.ntp_servers:
            return self.ntp_servers[address]
        if address not in self.address_pool:
            raise ValueError(f"{address} is not in the attacker's address pool")
        host = self.network.add_host(f"attacker-ntp-{address}", address)
        server = NTPServer.attacker_server(
            host, self.simulator, time_shift=self.resources.time_shift
        )
        self.ntp_servers[address] = server
        return server

    def redirect_addresses(self, count: int) -> list[str]:
        """Addresses to place in poisoned DNS records (NTP servers first)."""
        servers = self.ntp_server_addresses()
        if count <= len(servers):
            return servers[:count]
        extra = [a for a in self.address_pool if a not in self.ntp_servers]
        return servers + extra[: count - len(servers)]

    # ------------------------------------------------------------ injection
    def inject(self, packet: IPv4Packet) -> None:
        """Put a (typically source-spoofed) packet on the wire."""
        self.stats.packets_injected += 1
        self.network.inject(packet)

    def owns(self, address: str) -> bool:
        """True when ``address`` is attacker controlled."""
        return address in self.controlled_addresses
