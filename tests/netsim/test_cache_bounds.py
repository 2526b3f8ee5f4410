"""Every wire-layer memo cache must be bounded.

Multi-million-packet sweeps run through the memoised IP/name conversions and
the decode/encode caches millions of times with attacker-controlled inputs
(spoofed source addresses, synthetic names, replayed payloads), so an
unbounded memo is a slow memory leak.  This test enumerates the caches on
the hot paths and asserts each one is either an ``lru_cache`` with a finite
``maxsize`` or a dict cache with an explicit clear-on-full bound that it
actually honours.
"""

from __future__ import annotations

import functools

import repro.dns.message as message_module
import repro.dns.names as names_module
import repro.netsim.addresses as addresses_module
import repro.netsim.udp as udp_module
import repro.ntp.packet as packet_module
import repro.ntp.timestamps as timestamps_module

#: Every lru_cache-decorated function on the wire-layer hot paths.
LRU_CACHED_FUNCTIONS = [
    addresses_module.ip_to_int,
    addresses_module.int_to_ip,
    addresses_module.ip_to_bytes,
    names_module.normalize_name,
    names_module._wire_parts,
    names_module._uncompressed_wire,
    udp_module._address_word_sum,
    packet_module._decode_refid,
    packet_module._encode_refid,
]


class TestLRUCachesAreBounded:
    def test_every_memo_declares_a_finite_maxsize(self):
        for func in LRU_CACHED_FUNCTIONS:
            info = func.cache_info()
            assert info.maxsize is not None, f"{func.__name__} is unbounded"
            assert info.maxsize <= 65536, f"{func.__name__} bound suspiciously large"

    def test_no_unbounded_lru_in_hot_modules(self):
        # Catch future additions: scan module namespaces for cached callables.
        for module in (
            addresses_module,
            names_module,
            udp_module,
            packet_module,
            timestamps_module,
            message_module,
        ):
            for name, value in vars(module).items():
                if isinstance(value, functools._lru_cache_wrapper):
                    assert value.cache_info().maxsize is not None, (
                        f"{module.__name__}.{name} is an unbounded lru_cache"
                    )


class TestDictCachesHonourTheirBounds:
    def test_name_intern_tables_clear_on_full(self):
        names_module._NAME_INTERN.clear()
        for index in range(names_module.INTERN_MAX_ENTRIES + 10):
            names_module.intern_name(f"host-{index}.example")
        assert len(names_module._NAME_INTERN) <= names_module.INTERN_MAX_ENTRIES

    def test_label_intern_table_clears_on_full(self):
        names_module._LABEL_INTERN.clear()
        for index in range(names_module.INTERN_MAX_ENTRIES + 10):
            names_module._intern_label(f"label-{index}".encode("ascii"))
        assert len(names_module._LABEL_INTERN) <= names_module.INTERN_MAX_ENTRIES

    def test_decode_cache_clears_on_full(self):
        from repro.dns.message import DNSMessage
        from repro.dns.records import a_record

        message_module._DECODE_CACHE.clear()
        limit = message_module.DECODE_CACHE_MAX_ENTRIES
        for index in range(limit + 10):
            query = DNSMessage.query(f"h{index}.example", txid=index & 0xFFFF)
            response = query.make_response(
                answers=[a_record(f"h{index}.example", "203.0.113.1")]
            )
            DNSMessage.decode_cached(response.encode())
        assert len(message_module._DECODE_CACHE) <= limit

    def test_response_prefix_cache_clears_on_full(self):
        packet_module._RESPONSE_PREFIXES.clear()
        limit = packet_module.RESPONSE_PREFIX_CACHE_MAX_ENTRIES
        query = bytearray(48)
        for index in range(limit + 10):
            query[2] = index & 0xFF
            packet_module._server_response_wire(
                bytes(query), 1_700_000_000.0, 2 + (index >> 8), "192.0.2.1"
            )
        assert len(packet_module._RESPONSE_PREFIXES) <= limit
