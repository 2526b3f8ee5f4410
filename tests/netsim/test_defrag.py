"""Tests for the defragmentation cache — the attack's point of entry."""

from repro.netsim.defrag import DefragmentationCache
from repro.netsim.fragmentation import fragment_packet
from repro.netsim.packet import IPProtocol, IPv4Packet


def make_fragments(size=600, ipid=1, mtu=296, src="10.0.0.1", dst="10.0.0.2"):
    packet = IPv4Packet(
        src=src, dst=dst, protocol=IPProtocol.UDP, payload=bytes(size), ipid=ipid
    )
    return packet, fragment_packet(packet, mtu)


class TestBasicReassembly:
    def test_non_fragment_passes_through(self):
        cache = DefragmentationCache()
        packet = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", protocol=IPProtocol.UDP, payload=b"x")
        assert cache.add_fragment(packet, now=0.0) is packet

    def test_reassembles_when_all_fragments_arrive(self):
        cache = DefragmentationCache()
        packet, fragments = make_fragments()
        results = [cache.add_fragment(f, now=0.0) for f in fragments]
        assert results[:-1] == [None] * (len(fragments) - 1)
        assert results[-1].payload == packet.payload
        assert cache.stats.packets_reassembled == 1

    def test_out_of_order_arrival(self):
        cache = DefragmentationCache()
        packet, fragments = make_fragments()
        results = [cache.add_fragment(f, now=0.0) for f in reversed(fragments)]
        assert results[-1] is not None and results[-1].payload == packet.payload

    def test_different_ipids_not_mixed(self):
        cache = DefragmentationCache()
        _, a = make_fragments(ipid=1)
        _, b = make_fragments(ipid=2)
        assert cache.add_fragment(a[0], 0.0) is None
        assert cache.add_fragment(b[1], 0.0) is None
        assert cache.pending_buckets() == 2


class TestTimeout:
    def test_expired_bucket_is_purged(self):
        cache = DefragmentationCache(timeout=30.0)
        _, fragments = make_fragments()
        cache.add_fragment(fragments[0], now=0.0)
        assert cache.pending_buckets() == 1
        cache.purge_expired(now=31.0)
        assert cache.pending_buckets() == 0
        assert cache.stats.buckets_expired == 1

    def test_fragment_surviving_within_timeout_still_reassembles(self):
        cache = DefragmentationCache(timeout=30.0)
        packet, fragments = make_fragments()
        cache.add_fragment(fragments[1], now=0.0)
        result = None
        for fragment in [fragments[0]] + fragments[2:]:
            result = cache.add_fragment(fragment, now=29.0)
        assert result is not None and result.payload == packet.payload

    def test_late_fragment_does_not_reassemble_with_expired_one(self):
        cache = DefragmentationCache(timeout=30.0)
        _, fragments = make_fragments(size=400)
        cache.add_fragment(fragments[1], now=0.0)
        results = [cache.add_fragment(f, now=35.0) for f in fragments[:1]]
        assert all(r is None for r in results)


class TestFragmentLimits:
    def test_per_peer_bucket_limit_enforced(self):
        cache = DefragmentationCache(max_pending_per_peer=64)
        for ipid in range(80):
            _, fragments = make_fragments(ipid=ipid)
            cache.add_fragment(fragments[1], now=0.0)
        assert cache.pending_for_peer("10.0.0.1", "10.0.0.2") == 64
        assert cache.stats.fragments_dropped_limit == 16

    def test_windows_profile_allows_100(self):
        cache = DefragmentationCache(max_pending_per_peer=100)
        for ipid in range(120):
            _, fragments = make_fragments(ipid=ipid)
            cache.add_fragment(fragments[1], now=0.0)
        assert cache.pending_for_peer("10.0.0.1", "10.0.0.2") == 100

    def test_limit_is_per_peer_not_global(self):
        cache = DefragmentationCache(max_pending_per_peer=4)
        for ipid in range(4):
            _, fragments = make_fragments(ipid=ipid, src="10.0.0.1")
            cache.add_fragment(fragments[1], now=0.0)
        _, other = make_fragments(ipid=50, src="10.9.9.9")
        cache.add_fragment(other[1], now=0.0)
        assert cache.pending_for_peer("10.9.9.9", "10.0.0.2") == 1


class TestSpoofedFragmentReplacement:
    def _spoofed_second(self, fragments):
        spoofed = fragments[1].copy(payload=bytes([0xAA]) * len(fragments[1].payload))
        spoofed.metadata["spoofed"] = True
        return spoofed

    def test_planted_fragment_reassembles_with_real_first(self):
        cache = DefragmentationCache()
        packet, fragments = make_fragments(size=500, mtu=296)
        assert len(fragments) == 2
        cache.add_fragment(self._spoofed_second(fragments), now=0.0)
        result = cache.add_fragment(fragments[0], now=5.0)
        assert result is not None
        assert bytes([0xAA]) * len(fragments[1].payload) in result.payload
        assert result.metadata.get("reassembled_with_spoofed_fragment")
        assert cache.stats.spoofed_fragments_used == 1

    def test_first_wins_policy_prefers_planted_fragment(self):
        cache = DefragmentationCache()
        packet, fragments = make_fragments(size=500, mtu=296)
        cache.add_fragment(self._spoofed_second(fragments), now=0.0)
        cache.add_fragment(fragments[1], now=1.0)  # real second fragment later
        result = cache.add_fragment(fragments[0], now=2.0)
        assert result is not None
        assert bytes([0xAA]) in result.payload

    def test_planted_fragments_listing(self):
        cache = DefragmentationCache()
        _, fragments = make_fragments(size=500, mtu=296)
        cache.add_fragment(self._spoofed_second(fragments), now=0.0)
        assert len(cache.planted_fragments("10.0.0.1", "10.0.0.2")) == 1
        assert cache.planted_fragments("9.9.9.9", "10.0.0.2") == []
