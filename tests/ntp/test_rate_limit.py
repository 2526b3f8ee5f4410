"""Tests for NTP server rate limiting (the mechanism the attack abuses)."""

from repro.ntp.rate_limit import RateLimitDecision, RateLimiter


class TestBasicBehaviour:
    def test_slow_client_never_limited(self):
        limiter = RateLimiter(average_interval=8.0, burst_tolerance=30.0)
        decisions = [limiter.check("10.0.0.1", now=float(t * 64)) for t in range(20)]
        assert all(d is RateLimitDecision.RESPOND for d in decisions)

    def test_fast_client_limited_with_kod_first(self):
        limiter = RateLimiter(send_kod=True)
        decisions = [limiter.check("10.0.0.1", now=float(t)) for t in range(20)]
        assert RateLimitDecision.KOD in decisions
        assert decisions[-1] is RateLimitDecision.DROP
        assert decisions.count(RateLimitDecision.KOD) == 1

    def test_fast_client_limited_without_kod(self):
        limiter = RateLimiter(send_kod=False)
        decisions = [limiter.check("10.0.0.1", now=float(t)) for t in range(20)]
        assert RateLimitDecision.KOD not in decisions
        assert RateLimitDecision.DROP in decisions

    def test_disabled_limiter_always_responds(self):
        limiter = RateLimiter(enabled=False)
        decisions = [limiter.check("10.0.0.1", now=float(t) * 0.01) for t in range(100)]
        assert all(d is RateLimitDecision.RESPOND for d in decisions)

    def test_limits_are_per_source(self):
        limiter = RateLimiter()
        for t in range(20):
            limiter.check("10.0.0.1", now=float(t))
        assert limiter.check("10.0.0.2", now=20.0) is RateLimitDecision.RESPOND

    def test_budget_recovers_after_idle_period(self):
        limiter = RateLimiter()
        for t in range(20):
            limiter.check("10.0.0.1", now=float(t))
        assert limiter.is_limited("10.0.0.1", now=20.0)
        assert limiter.check("10.0.0.1", now=500.0) is RateLimitDecision.RESPOND


class TestSpoofingAbuse:
    def test_spoofed_queries_deny_service_to_victim(self):
        """The run-time attack's core: the attacker's spoofed queries (same
        source address) exhaust the victim's budget, so the victim's own
        slow polls go unanswered."""
        limiter = RateLimiter()
        victim = "192.0.2.100"
        now = 0.0
        # Attacker sends a spoofed query every 2 seconds for a minute.
        for _ in range(30):
            limiter.check(victim, now)
            now += 2.0
        # The victim's own poll (one per 64 s) is now denied.
        assert limiter.check(victim, now + 10.0) is not RateLimitDecision.RESPOND

    def test_sustained_spoofing_keeps_victim_limited(self):
        limiter = RateLimiter()
        victim = "192.0.2.100"
        now = 0.0
        denied_polls = 0
        for round_index in range(10):
            for _ in range(32):
                limiter.check(victim, now)
                now += 2.0
            if limiter.check(victim, now) is not RateLimitDecision.RESPOND:
                denied_polls += 1
        assert denied_polls == 10

    def test_counters(self):
        limiter = RateLimiter()
        for t in range(20):
            limiter.check("10.0.0.1", now=float(t))
        assert limiter.queries_seen == 20
        assert limiter.queries_dropped > 0
        assert limiter.kods_sent == 1
