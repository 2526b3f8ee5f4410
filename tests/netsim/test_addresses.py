"""Tests for IPv4 address helpers."""

import pytest

from repro.netsim.addresses import (
    IPv4Address,
    address_range,
    int_to_ip,
    ip_to_int,
)
from repro.netsim.errors import AddressError


class TestIpToInt:
    def test_round_trip(self):
        assert int_to_ip(ip_to_int("192.0.2.1")) == "192.0.2.1"

    def test_known_value(self):
        assert ip_to_int("0.0.0.1") == 1
        assert ip_to_int("1.0.0.0") == 1 << 24

    def test_extremes(self):
        assert ip_to_int("255.255.255.255") == 0xFFFFFFFF
        assert ip_to_int("0.0.0.0") == 0

    def test_rejects_short_form(self):
        with pytest.raises(AddressError):
            ip_to_int("10.0.1")

    def test_rejects_large_octet(self):
        with pytest.raises(AddressError):
            ip_to_int("300.0.0.1")

    def test_rejects_non_numeric(self):
        with pytest.raises(AddressError):
            ip_to_int("a.b.c.d")


class TestIntToIp:
    def test_known_value(self):
        assert int_to_ip(0xC0000201) == "192.0.2.1"

    def test_rejects_out_of_range(self):
        with pytest.raises(AddressError):
            int_to_ip(1 << 32)
        with pytest.raises(AddressError):
            int_to_ip(-1)


class TestIPv4Address:
    def test_parse_and_str(self):
        address = IPv4Address.parse("203.0.113.7")
        assert str(address) == "203.0.113.7"

    def test_offset_wraps(self):
        address = IPv4Address.parse("255.255.255.255").offset(1)
        assert str(address) == "0.0.0.0"

    def test_ordering(self):
        assert IPv4Address.parse("10.0.0.1") < IPv4Address.parse("10.0.0.2")


class TestAddressRange:
    def test_length_and_contiguity(self):
        addresses = address_range("10.0.0.250", 10)
        assert len(addresses) == 10
        assert addresses[0] == "10.0.0.250"
        assert addresses[6] == "10.0.1.0"  # crosses the /24 boundary

    def test_unique(self):
        addresses = address_range("203.0.113.1", 100)
        assert len(set(addresses)) == 100
