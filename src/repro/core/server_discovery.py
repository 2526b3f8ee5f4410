"""Discovering which NTP servers a victim client uses (paper section IV-B2).

The run-time attack must disrupt the victim's *existing* associations, so the
attacker first needs their addresses.  The paper lists three options:

a. **Pool enumeration** — query the pool DNS zone repeatedly and union the
   results; the whole ``pool.ntp.org`` population is only 2000–3000 servers,
   few enough to attack all of them.  Scenario P1 models its outcome: the
   attacker is handed the full server list (``known_server_list`` of
   :class:`repro.core.run_time.RunTimeAttack`).
b. **Reference-id leak** — if the victim also answers NTP queries (ntpd's
   default), the ``refid`` field of its responses names its current upstream
   server; the attacker learns the associations one at a time as the victim
   fails over (scenario P2).  Implemented here.
c. **Open configuration interface** — some servers still answer mode 6/7
   configuration queries, which reveal every configured upstream at once.
   No scenario relies on it, and simulated servers do not answer them.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.attacker import Attacker
from repro.netsim.simulator import Simulator
from repro.ntp.errors import NTPPacketError
from repro.ntp.packet import NTPMode, NTPPacket, NTP_PORT


def discover_via_refid_leak(
    attacker: Attacker,
    simulator: Simulator,
    victim_ip: str,
    on_peer: Callable[[str], None],
    probe_interval: float = 32.0,
    duration: Optional[float] = None,
) -> Callable[[], None]:
    """Poll the victim's NTP service and report its upstream server addresses.

    Every ``probe_interval`` the attacker sends a mode 3 query to the victim
    (which, run with ntpd defaults, answers it) and extracts the reference
    id.  Each *new* upstream address observed is reported through
    ``on_peer``.  Returns a function that stops the probing.
    """
    socket = attacker.query_host.bind(0)
    seen: set[str] = set()
    state = {"active": True, "started": simulator.now}

    def stop() -> None:
        if state["active"]:
            state["active"] = False
            socket.close()

    def on_datagram(payload: bytes, src_ip: str, src_port: int) -> None:
        if src_ip != victim_ip or not state["active"]:
            return
        try:
            response = NTPPacket.decode(payload)
        except NTPPacketError:
            return
        if response.mode is not NTPMode.SERVER:
            return
        peer = response.reference_id
        if peer and "." in peer and peer not in seen and not attacker.owns(peer):
            seen.add(peer)
            on_peer(peer)

    socket.on_datagram = on_datagram

    def probe() -> None:
        if not state["active"]:
            return
        if duration is not None and simulator.now - state["started"] > duration:
            stop()
            return
        attacker.stats.own_queries_sent += 1
        query = NTPPacket.client_query(simulator.now)
        socket.sendto(query.encode(), victim_ip, NTP_PORT)
        simulator.schedule(probe_interval, probe, label="refid-probe")

    probe()
    return stop
