"""A minimal UDP socket abstraction bound to a simulated host.

:meth:`UDPSocket.sendto` range-checks the ports and hands the datagram to
the network's one send frame, :meth:`repro.netsim.network.Network.send_udp`
(path MTU, IPID, checksum, batch).  Delivery never calls into the socket:
the receiving datapath (:meth:`repro.netsim.datapath.HostDatapath.deliver`)
or a batch drain calls the socket's handler, or appends to its ``inbox``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.netsim.errors import PacketError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.netsim.host import Host

#: Signature of a datagram handler: (payload, source_ip, source_port).
DatagramHandler = Callable[[bytes, str, int], None]


@dataclass
class ReceivedDatagram:
    """A datagram queued on a socket that has no handler installed."""

    payload: bytes
    src_ip: str
    src_port: int
    received_at: float


@dataclass
class UDPSocket:
    """A UDP socket bound to one port of a simulated host.

    Applications either install an ``on_datagram`` handler (the usual mode
    for servers and clients driven by the event loop) or poll the ``inbox``
    (used by simple tests).
    """

    host: "Host"
    port: int
    on_datagram: Optional[DatagramHandler] = None
    inbox: list[ReceivedDatagram] = field(default_factory=list)
    closed: bool = False

    def sendto(self, payload: bytes, dst_ip: str, dst_port: int) -> None:
        """Send ``payload`` to ``dst_ip:dst_port`` from this socket's port."""
        src_port = self.port
        if not (0 <= src_port <= 0xFFFF and 0 <= dst_port <= 0xFFFF):
            bad = src_port if not 0 <= src_port <= 0xFFFF else dst_port
            raise PacketError(f"UDP port out of range: {bad}")
        host = self.host
        host.network.send_udp(host, dst_ip, src_port, dst_port, payload)

    def close(self) -> None:
        """Unbind the socket from its host."""
        if not self.closed:
            self.closed = True
            self.host.release_port(self.port)
