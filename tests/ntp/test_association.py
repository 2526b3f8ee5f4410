"""Tests for client-side associations."""

from repro.ntp.association import Association, AssociationState


class TestReachability:
    def test_new_association_unreachable_until_first_response(self):
        assoc = Association(server_ip="203.0.113.1")
        assert not assoc.reachable
        assoc.record_success(0.001)
        assert assoc.reachable

    def test_reach_register_shifts(self):
        assoc = Association(server_ip="203.0.113.1")
        assoc.record_success(0.0)
        assert assoc.reach == 1
        assoc.record_success(0.0)
        assert assoc.reach == 3
        assoc.record_failure()
        assert assoc.reach == 6

    def test_eight_failures_empty_the_register(self):
        assoc = Association(server_ip="203.0.113.1")
        assoc.record_success(0.0)
        for _ in range(8):
            assoc.record_failure()
        assert not assoc.reachable
        assert assoc.consecutive_failures == 8

    def test_success_resets_consecutive_failures(self):
        assoc = Association(server_ip="203.0.113.1")
        for _ in range(5):
            assoc.record_failure()
        assoc.record_success(0.0)
        assert assoc.consecutive_failures == 0

    def test_kod_counts_as_failure(self):
        assoc = Association(server_ip="203.0.113.1")
        assoc.record_kod()
        assert assoc.kods_received == 1
        assert assoc.consecutive_failures == 1


class TestStateAndSamples:
    def test_success_reactivates_unreachable(self):
        assoc = Association(server_ip="203.0.113.1", state=AssociationState.UNREACHABLE)
        assoc.record_success(0.0)
        assert assoc.state is AssociationState.ACTIVE

    def test_usable_only_when_active(self):
        assoc = Association(server_ip="203.0.113.1")
        assert assoc.is_usable()
        assoc.state = AssociationState.REMOVED
        assert not assoc.is_usable()
