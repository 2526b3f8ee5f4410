"""Tests for the resolver cache (TTL semantics, snooping observables)."""

from repro.dns.cache import DNSCache
from repro.dns.records import RRType, a_record, ns_record


class TestStoreAndLookup:
    def test_miss_on_empty_cache(self):
        cache = DNSCache()
        assert cache.lookup("pool.ntp.org", RRType.A, now=0.0) is None
        assert cache.misses == 1

    def test_hit_returns_records(self):
        cache = DNSCache()
        cache.store([a_record("pool.ntp.org", "1.1.1.1", ttl=150)], now=0.0)
        records = cache.lookup("pool.ntp.org", RRType.A, now=10.0)
        assert records is not None and str(records[0].data) == "1.1.1.1"
        assert cache.hits == 1

    def test_rrset_grouped_by_name_and_type(self):
        cache = DNSCache()
        cache.store(
            [
                a_record("pool.ntp.org", "1.1.1.1", ttl=150),
                a_record("pool.ntp.org", "2.2.2.2", ttl=150),
                ns_record("pool.ntp.org", "ns1.pool.ntp.org"),
            ],
            now=0.0,
        )
        a_records = cache.lookup("pool.ntp.org", RRType.A, now=1.0)
        assert len(a_records) == 2
        assert cache.lookup("pool.ntp.org", RRType.NS, now=1.0) is not None

    def test_later_store_overwrites(self):
        """Poisoned records replace the honest ones for the same key."""
        cache = DNSCache()
        cache.store([a_record("pool.ntp.org", "1.1.1.1", ttl=150)], now=0.0)
        cache.store([a_record("pool.ntp.org", "6.6.6.6", ttl=86400)], now=10.0)
        records = cache.lookup("pool.ntp.org", RRType.A, now=20.0)
        assert [str(r.data) for r in records] == ["6.6.6.6"]

    def test_case_insensitive_lookup(self):
        cache = DNSCache()
        cache.store([a_record("pool.ntp.org", "1.1.1.1", ttl=150)], now=0.0)
        assert cache.lookup("POOL.NTP.ORG", RRType.A, now=1.0) is not None


class TestTTL:
    def test_remaining_ttl_decrements(self):
        cache = DNSCache()
        cache.store([a_record("pool.ntp.org", "1.1.1.1", ttl=150)], now=0.0)
        records = cache.lookup("pool.ntp.org", RRType.A, now=100.0)
        assert records[0].ttl == 50
        assert cache.remaining_ttl("pool.ntp.org", RRType.A, now=100.0) == 50.0

    def test_expiry(self):
        cache = DNSCache()
        cache.store([a_record("pool.ntp.org", "1.1.1.1", ttl=150)], now=0.0)
        assert cache.lookup("pool.ntp.org", RRType.A, now=151.0) is None
        assert cache.remaining_ttl("pool.ntp.org", RRType.A, now=151.0) is None

    def test_max_ttl_cap(self):
        cache = DNSCache(max_ttl=3600)
        cache.store([a_record("pool.ntp.org", "6.6.6.6", ttl=10**6)], now=0.0)
        assert cache.lookup("pool.ntp.org", RRType.A, now=3601.0) is None

    def test_long_ttl_poisoning_survives_24_hours(self):
        """The property the Chronos attack depends on."""
        cache = DNSCache()
        cache.store([a_record("pool.ntp.org", "6.6.6.6", ttl=48 * 3600)], now=0.0)
        assert cache.lookup("pool.ntp.org", RRType.A, now=24 * 3600.0) is not None
