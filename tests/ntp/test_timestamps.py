"""Tests for NTP timestamp conversion."""

import pytest

from repro.ntp.timestamps import NTP_UNIX_EPOCH_DELTA, NTPTimestamp


class TestConversion:
    def test_unix_round_trip(self):
        ts = NTPTimestamp.from_unix(1_600_000_000.125)
        assert ts.to_unix() == pytest.approx(1_600_000_000.125, abs=1e-6)

    def test_epoch_delta(self):
        assert NTPTimestamp.from_unix(0.0).seconds == NTP_UNIX_EPOCH_DELTA

    def test_fraction_resolution(self):
        ts = NTPTimestamp.from_unix(1.000000001)
        assert ts.to_unix() == pytest.approx(1.0, abs=1e-6)


class TestWireFormat:
    def test_byte_round_trip(self):
        ts = NTPTimestamp.from_unix(1_700_000_000.5)
        assert NTPTimestamp.from_bytes(ts.to_bytes()) == ts

    def test_byte_length(self):
        assert len(NTPTimestamp.from_unix(1.0).to_bytes()) == 8

    def test_from_bytes_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            NTPTimestamp.from_bytes(b"\x00" * 7)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            NTPTimestamp(seconds=-1, fraction=0)
        with pytest.raises(ValueError):
            NTPTimestamp(seconds=0, fraction=1 << 32)


class TestArithmetic:
    def test_difference_in_seconds(self):
        a = NTPTimestamp.from_unix(1000.0)
        b = NTPTimestamp.from_unix(1500.25)
        assert b - a == pytest.approx(500.25, abs=1e-6)

    def test_negative_difference(self):
        a = NTPTimestamp.from_unix(1000.0)
        b = NTPTimestamp.from_unix(500.0)
        assert b - a == pytest.approx(-500.0, abs=1e-6)

    def test_ordering(self):
        assert NTPTimestamp.from_unix(1.0) < NTPTimestamp.from_unix(2.0)
