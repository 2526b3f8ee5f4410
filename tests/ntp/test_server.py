"""Tests for the NTP server (serving, rate limiting, config interface)."""

import pytest

from repro.netsim.network import Network
from repro.netsim.packet import IPProtocol, IPv4Packet
from repro.netsim.simulator import Simulator
from repro.netsim.udp import UDPDatagram, encode_udp
from repro.ntp.clock import SystemClock
from repro.ntp.packet import NTPMode, NTPPacket, NTP_PORT
from repro.ntp.server import NTPServer, NTPServerConfig


def build_env(config=None, clock=None):
    sim = Simulator(seed=8)
    net = Network(sim)
    server_host = net.add_host("server", "203.0.113.1")
    client_host = net.add_host("client", "192.0.2.100")
    server = NTPServer(server_host, sim, clock=clock, config=config)
    return sim, net, server, client_host


def query_server(sim, client_host, server_ip="203.0.113.1", count=1, interval=1.0):
    responses = []
    socket = client_host.bind(0)
    socket.on_datagram = lambda payload, ip, port: responses.append(NTPPacket.decode(payload))

    def send(remaining):
        socket.sendto(NTPPacket.client_query(sim.now).encode(), server_ip, NTP_PORT)
        if remaining > 1:
            sim.schedule(interval, lambda: send(remaining - 1))

    send(count)
    sim.run()
    socket.close()
    return responses


class TestServing:
    def test_responds_with_mode4_and_own_time(self):
        clock = SystemClock(offset=2.5)
        sim, net, server, client = build_env(clock=clock)
        responses = query_server(sim, client)
        assert len(responses) == 1
        assert responses[0].mode is NTPMode.SERVER
        assert responses[0].transmit_timestamp.to_unix() == pytest.approx(sim.now + 2.5, abs=0.1)

    def test_attacker_server_serves_shifted_time(self):
        sim = Simulator(seed=9)
        net = Network(sim)
        host = net.add_host("evil", "66.6.6.6")
        server = NTPServer.attacker_server(host, sim, time_shift=-500.0)
        client = net.add_host("client", "192.0.2.100")
        responses = query_server(sim, client, server_ip="66.6.6.6")
        assert responses[0].transmit_timestamp.to_unix() == pytest.approx(sim.now - 500.0, abs=0.1)

    def test_refid_carries_upstream_address(self):
        config = NTPServerConfig(upstream_server="198.51.100.200")
        sim, net, server, client = build_env(config=config)
        responses = query_server(sim, client)
        assert responses[0].reference_id == "198.51.100.200"

    def test_non_client_modes_ignored(self):
        sim, net, server, client = build_env()
        socket = client.bind(0)
        broadcast = NTPPacket(mode=NTPMode.BROADCAST, stratum=2, reference_id="")
        socket.sendto(broadcast.encode(), "203.0.113.1", NTP_PORT)
        sim.run()
        assert server.stats.responses_sent == 0

    def test_malformed_packet_ignored(self):
        sim, net, server, client = build_env()
        client.bind(0).sendto(b"tiny", "203.0.113.1", NTP_PORT)
        sim.run()
        assert server.stats.responses_sent == 0


class TestRateLimiting:
    def test_fast_client_gets_kod_then_silence(self):
        config = NTPServerConfig(rate_limiting=True, send_kod=True)
        sim, net, server, client = build_env(config=config)
        responses = query_server(sim, client, count=20, interval=1.0)
        kods = [r for r in responses if r.is_kiss_of_death]
        assert len(kods) == 1
        assert len(responses) < 20
        assert server.stats.queries_dropped > 0

    def test_rate_limiting_disabled_by_default(self):
        sim, net, server, client = build_env()
        responses = query_server(sim, client, count=20, interval=1.0)
        assert len(responses) == 20

    def test_spoofed_queries_limit_the_victim(self):
        """Off-path association removal: spoofed queries with the victim's
        source address make the server stop answering the victim."""
        config = NTPServerConfig(rate_limiting=True)
        sim, net, server, client = build_env(config=config)
        victim_ip = "192.0.2.100"
        # Attacker injects spoofed queries claiming to come from the victim.
        for index in range(30):
            query = NTPPacket.client_query(float(index))
            datagram = UDPDatagram(src_port=NTP_PORT, dst_port=NTP_PORT, payload=query.encode())
            packet = IPv4Packet(
                src=victim_ip,
                dst="203.0.113.1",
                protocol=IPProtocol.UDP,
                payload=encode_udp(victim_ip, "203.0.113.1", datagram),
                ipid=index,
            )
            sim.schedule(index * 2.0, lambda p=packet: net.inject(p))
        sim.run()
        assert server.is_rate_limiting(victim_ip)

    def test_replaced_config_switches_limiting_on(self):
        """A server built unlimited and then given a limiting config stops
        answering a client that queries at 1/s."""
        sim, net, server, client = build_env()
        server.config = NTPServerConfig(rate_limiting=True, burst_tolerance=10)
        responses = query_server(sim, client, count=50, interval=1.0)
        assert len(responses) < 50
        assert server.rate_limiter.enabled
        assert server.rate_limiter.burst_tolerance == 10

    def test_in_place_edit_applies_after_recompile(self):
        sim, net, server, client = build_env()
        server.config.rate_limiting = True
        server.config.burst_tolerance = 10
        server.recompile()
        responses = query_server(sim, client, count=50, interval=1.0)
        assert len(responses) < 50

    def test_recompile_keeps_per_source_state(self):
        """Re-applying the limiter fields changes the budget, not what the
        limiter already counted: a limited client stays limited."""
        config = NTPServerConfig(rate_limiting=True, send_kod=False)
        sim, net, server, client = build_env(config=config)
        query_server(sim, client, count=20, interval=1.0)
        assert server.is_rate_limiting("192.0.2.100")
        server.config = NTPServerConfig(
            rate_limiting=True, send_kod=False, burst_tolerance=101.0
        )
        assert server.is_rate_limiting("192.0.2.100")
        assert server.rate_limiter.queries_seen == 20

    def test_other_clients_unaffected_by_victim_limiting(self):
        config = NTPServerConfig(rate_limiting=True)
        sim, net, server, client = build_env(config=config)
        other = net.add_host("other", "192.0.2.200")
        query_server(sim, client, count=20, interval=1.0)  # client now limited
        responses = query_server(sim, other, count=1)
        assert len(responses) == 1


class TestConfigInterface:
    def test_closed_by_default(self):
        sim, net, server, client = build_env()
        socket = client.bind(0)
        got = []
        socket.on_datagram = lambda payload, ip, port: got.append(payload)
        socket.sendto(NTPPacket(mode=NTPMode.PRIVATE, stratum=0).encode(), "203.0.113.1", NTP_PORT)
        sim.run()
        assert got == []

    def test_open_interface_leaks_upstream(self):
        config = NTPServerConfig(open_config_interface=True, upstream_server="198.51.100.200")
        sim, net, server, client = build_env(config=config)
        socket = client.bind(0)
        got = []
        socket.on_datagram = lambda payload, ip, port: got.append(payload)
        socket.sendto(NTPPacket(mode=NTPMode.PRIVATE, stratum=0).encode(), "203.0.113.1", NTP_PORT)
        sim.run()
        assert got and b"198.51.100.200" in got[0]
        assert server.stats.config_queries_answered == 1
