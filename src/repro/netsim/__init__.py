"""Discrete-event network simulator used as the substrate for all experiments.

The simulator provides byte-accurate IPv4, UDP and ICMP layers including:

* IPv4 packet encoding/decoding and fragmentation at 8-byte boundaries,
* per-host IP defragmentation caches with Linux's reassembly timeout
  and fragment-count limit,
* globally incrementing IPIDs, as observed on the vulnerable nameserver
  operating systems,
* real ones'-complement UDP checksums computed over the IPv4 pseudo
  header, which is what makes the fragment-replacement attack of the
  paper non-trivial,
* ICMP Destination Unreachable / Fragmentation Needed handling with a
  per-destination path-MTU cache (PMTUD), and
* an off-path attacker interface which can inject arbitrary, possibly
  spoofed, packets into any link but cannot observe traffic.

The public surface mirrors a tiny sockets API: hosts open
:class:`~repro.netsim.sockets.UDPSocket` objects bound to ports and
exchange datagrams through a :class:`~repro.netsim.network.Network`.
"""

from repro.netsim.addresses import IPv4Address, ip_to_int, int_to_ip
from repro.netsim.checksum import ones_complement_sum, internet_checksum
from repro.netsim.simulator import Simulator, Event
from repro.netsim.packet import IPv4Packet, IPProtocol
from repro.netsim.fragmentation import fragment_packet, reassemble_fragments
from repro.netsim.defrag import DefragmentationCache
from repro.netsim.ipid import GlobalCounterIPID
from repro.netsim.udp import UDPDatagram, encode_udp, decode_udp, udp_checksum
from repro.netsim.icmp import ICMPMessage, ICMPType, frag_needed
from repro.netsim.datapath import DeliveryPipeline, HostDatapath
from repro.netsim.faults import (
    Corruption,
    Duplication,
    FaultChannel,
    FaultPlan,
    FaultSchedule,
    FaultStats,
    GilbertElliott,
    LatencySpike,
    Partition,
    ReorderJitter,
)
from repro.netsim.host import Host, OSProfile
from repro.netsim.sockets import UDPSocket
from repro.netsim.network import Network, Link
from repro.netsim.capture import PacketCapture

__all__ = [
    "IPv4Address",
    "ip_to_int",
    "int_to_ip",
    "ones_complement_sum",
    "internet_checksum",
    "Simulator",
    "Event",
    "IPv4Packet",
    "IPProtocol",
    "fragment_packet",
    "reassemble_fragments",
    "DefragmentationCache",
    "GlobalCounterIPID",
    "UDPDatagram",
    "encode_udp",
    "decode_udp",
    "udp_checksum",
    "ICMPMessage",
    "ICMPType",
    "frag_needed",
    "DeliveryPipeline",
    "HostDatapath",
    "Corruption",
    "Duplication",
    "FaultChannel",
    "FaultPlan",
    "FaultSchedule",
    "FaultStats",
    "GilbertElliott",
    "LatencySpike",
    "Partition",
    "ReorderJitter",
    "Host",
    "OSProfile",
    "UDPSocket",
    "Network",
    "Link",
    "PacketCapture",
]
