"""Simulated hosts: the IP/UDP/ICMP stack every component runs on.

A :class:`Host` owns an address, a defragmentation cache, a path-MTU cache,
a global IPID counter and a set of bound UDP sockets.  A socket send goes
straight to :meth:`repro.netsim.network.Network.send_udp`, which reads the
host's path MTU, IPID counter and stats block; the host itself sends
only what must be fragmented (:meth:`Host.send_fragmented`) and its ICMP
messages.  Every host reassembles like Linux (30 s timeout, 64 pending
fragments per peer, first copy wins), honours unauthenticated ICMP
fragmentation-needed messages down to the 68-byte IPv4 minimum and
assigns IPIDs from one global counter: the posture the paper's attacks
exploit.  Its :class:`OSProfile` holds the two differences a result
depends on: whether it verifies UDP checksums and whether it drops IP
fragments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.netsim.datapath import HostDatapath
from repro.netsim.defrag import DefragmentationCache
from repro.netsim.errors import PortInUseError
from repro.netsim.fragmentation import MINIMUM_IPV4_MTU, fragment_packet
from repro.netsim.icmp import ICMPMessage
from repro.netsim.ipid import GlobalCounterIPID
from repro.netsim.packet import IPProtocol, IPv4Packet
from repro.netsim.sockets import DatagramHandler, UDPSocket
from repro.netsim.udp import UDP_HEADER_LEN, _UDP_HEADER, udp_checksum_arith

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.netsim.network import Network


@dataclass
class OSProfile:
    """Operating-system parameters relevant to the attacks.

    The defaults model a Linux host.  Reassembly (30 s timeout, 64 pending
    fragments per peer, section IV-A and III-2), ICMP handling and IPID
    assignment are the same on every host; see the module docstring.
    """

    name: str = "linux"
    verify_udp_checksum: bool = True
    drops_fragments: bool = False

    @classmethod
    def linux(cls) -> "OSProfile":
        """A patched Linux host (30 s timeout, 64 fragment buckets)."""
        return cls(name="linux")

    @classmethod
    def fragment_filtering(cls) -> "OSProfile":
        """A host (or its upstream firewall) that drops IP fragments.

        The ad-network study (Table V) found that roughly a third of
        resolvers reject fragmented DNS responses; this profile models them:
        such resolvers are immune to the defragmentation poisoning attack.
        """
        return cls(name="fragment-filtering", drops_fragments=True)


@dataclass(slots=True)
class HostStats:
    """Per-host counters used by tests and measurement reports.

    Slotted: the delivery pipeline bumps these per packet, and slot access
    skips the per-instance ``__dict__`` lookup.
    """

    udp_sent: int = 0
    udp_received: int = 0
    udp_checksum_failures: int = 0
    icmp_received: int = 0
    pmtu_updates: int = 0
    packets_fragmented: int = 0
    #: IP fragments dropped on arrival by a fragment-filtering profile.
    fragments_filtered: int = 0
    #: Corrupted datagrams a checksum verify accepted; strict mode checks
    #: it stays 0 (see ``Simulator.check_invariants``).
    corrupted_accepted: int = 0


class Host:
    """A network endpoint with an IPv4/UDP/ICMP stack.

    Hosts are created through :meth:`repro.netsim.network.Network.add_host`,
    which wires up the simulator clock and link layer.
    """

    def __init__(
        self,
        name: str,
        ip: str,
        network: "Network",
        profile: Optional[OSProfile] = None,
        interface_mtu: int = 1500,
    ) -> None:
        if interface_mtu > 0xFFFF:
            # The IPv4 total length is 16 bits.  A datagram that fits the
            # MTU must fit its UDP length field too: the batch path carries
            # that field unpacked and would not notice an overflow.
            raise ValueError(f"interface_mtu must be <= 65535, got {interface_mtu}")
        self.name = name
        self.ip = ip
        self.network = network
        #: Cached to avoid the two-attribute chase on every received packet.
        self.simulator = network.simulator
        self.profile = profile or OSProfile.linux()
        self.ipid_allocator = GlobalCounterIPID()
        self.interface_mtu = interface_mtu
        self.stats = HostStats()
        self.defrag = DefragmentationCache()
        self._sockets: dict[int, UDPSocket] = {}
        self._pmtu: dict[str, int] = {}
        self._ephemeral_rng = network.simulator.spawn_rng()
        self.on_icmp: Optional[Callable[[ICMPMessage, str], None]] = None
        #: Optional raw-packet observer for traffic addressed *to this host*.
        #: A host can always inspect its own incoming IP headers (that is how
        #: the attacker samples a nameserver's IPID sequence from responses
        #: to its own queries); this is not an off-path capture of others'
        #: traffic.
        self.packet_tap: Optional[Callable[[IPv4Packet], None]] = None
        #: The compiled receive side (capture tap → defrag → checksum →
        #: demux → handler as one flat call chain); built last so every
        #: object it binds exists.  See :mod:`repro.netsim.datapath`.
        self.datapath = HostDatapath(self)

    # ------------------------------------------------------------------ UDP
    def bind(self, port: int, on_datagram: Optional[DatagramHandler] = None) -> UDPSocket:
        """Bind a UDP socket to ``port`` (0 picks a random ephemeral port)."""
        if port == 0:
            port = self.ephemeral_port()
        if port in self._sockets:
            raise PortInUseError(f"{self.name}: UDP port {port} already bound")
        socket = UDPSocket(host=self, port=port, on_datagram=on_datagram)
        self._sockets[port] = socket
        return socket

    def ephemeral_port(self) -> int:
        """Pick an unused port from the ephemeral range (49152–65535).

        Source-port randomisation is one of the two 16-bit challenge-response
        defences (alongside the DNS TXID) that force DNS poisoning attackers
        towards the fragmentation technique of the paper.
        """
        while True:
            port = int(self._ephemeral_rng.integers(49152, 65536))
            if port not in self._sockets:
                return port

    def release_port(self, port: int) -> None:
        """Remove the socket bound to ``port`` (called by socket.close)."""
        self._sockets.pop(port, None)

    def send_fragmented(
        self, dst_ip: str, src_port: int, dst_port: int, payload: bytes, mtu: int
    ) -> None:
        """Send a UDP datagram that does not fit the path MTU ``mtu``.

        The branch of :meth:`~repro.netsim.network.Network.send_udp` for
        oversized datagrams: the datagram is packed here, checksummed and
        sent as IPv4 fragments, one :meth:`Network.transmit` each.  An MTU
        below the IPv4 minimum makes the fragmenter raise.
        """
        src_ip = self.ip
        header = _UDP_HEADER.pack(
            src_port,
            dst_port,
            UDP_HEADER_LEN + len(payload),
            udp_checksum_arith(src_ip, dst_ip, src_port, dst_port, payload),
        )
        packet = IPv4Packet.udp(
            src_ip, dst_ip, header + payload, self.ipid_allocator.next_ipid(dst_ip)
        )
        self.stats.udp_sent += 1
        fragments = fragment_packet(packet, mtu)
        if len(fragments) > 1:
            self.stats.packets_fragmented += 1
        for fragment in fragments:
            self.network.transmit(fragment)

    def path_mtu(self, dst_ip: str) -> int:
        """The MTU currently used towards ``dst_ip`` (interface MTU if unknown)."""
        return min(self.interface_mtu, self._pmtu.get(dst_ip, self.interface_mtu))

    # ----------------------------------------------------------------- ICMP
    def send_icmp(self, dst_ip: str, message: ICMPMessage) -> None:
        """Send an ICMP message (used by the attacker for PMTUD abuse)."""
        packet = IPv4Packet(
            src=self.ip,
            dst=dst_ip,
            protocol=IPProtocol.ICMP,
            payload=b"",
            ipid=self.ipid_allocator.next_ipid(dst_ip),
            metadata={"icmp": message},
        )
        self.network.transmit(packet)

    def _handle_icmp(self, message: ICMPMessage, src_ip: str) -> None:
        self.stats.icmp_received += 1
        if message.is_frag_needed:
            mtu = max(message.next_hop_mtu, MINIMUM_IPV4_MTU)
            # A real ICMP error embeds the offending packet, whose destination
            # tells the host which path the MTU applies to.  The attacker sets
            # "about_destination" to the victim resolver so that responses to
            # the resolver, not to the attacker, get fragmented.
            target = message.metadata.get("about_destination", src_ip)
            current = self._pmtu.get(target, self.interface_mtu)
            if mtu < current:
                self._pmtu[target] = mtu
                self.stats.pmtu_updates += 1
        if self.on_icmp is not None:
            self.on_icmp(message, src_ip)

    # ------------------------------------------------------------- utilities
    def bound_ports(self) -> list[int]:
        """Ports with live sockets, mostly for assertions in tests."""
        return sorted(self._sockets)
