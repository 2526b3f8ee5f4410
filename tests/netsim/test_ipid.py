"""Tests for the global IPID counter."""

from repro.netsim.ipid import GlobalCounterIPID


class TestGlobalCounter:
    def test_increments_across_destinations(self):
        allocator = GlobalCounterIPID(start=10)
        assert allocator.next_ipid("1.1.1.1") == 10
        assert allocator.next_ipid("2.2.2.2") == 11
        assert allocator.next_ipid("3.3.3.3") == 12

    def test_wraps_at_16_bits(self):
        allocator = GlobalCounterIPID(start=0xFFFF)
        assert allocator.next_ipid("1.1.1.1") == 0xFFFF
        assert allocator.next_ipid("1.1.1.1") == 0

    def test_off_path_sampling_predicts_victim_value(self):
        """The attack's core assumption: sampling from one destination
        predicts the value used for another destination."""
        allocator = GlobalCounterIPID(start=100)
        observed = [allocator.next_ipid("attacker") for _ in range(3)]
        prediction = observed[-1] + 1
        assert allocator.next_ipid("victim-resolver") == prediction
