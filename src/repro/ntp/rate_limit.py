"""NTP server-side rate limiting (the mechanism the run-time attack abuses).

The reference implementation (ntpd's ``restrict ... limited [kod]``) tracks
the inter-arrival times of queries per source address.  When a source
queries faster than the configured average interval for long enough, the
server stops answering it; with ``kod`` configured it first sends a single
Kiss-o'-Death packet with code ``RATE``.

Because the server identifies clients only by source IP address — NTP runs
over UDP with no handshake — an off-path attacker can send *spoofed* queries
carrying the victim client's address and push the victim into the limited
state.  The victim's own (legitimate, slow) queries then go unanswered and
the client eventually declares the server unreachable.  This module
implements the token-bucket-style accounting that produces that behaviour,
and is shared by real servers, the synthetic pool population, and the
rate-limit scanner of section VII-A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class RateLimitDecision(Enum):
    """What the server should do with one incoming query."""

    RESPOND = "respond"
    KOD = "kod"
    DROP = "drop"


#: Hoisted members for the per-query hot path (attribute loads add up over
#: millions of checks).
_RESPOND = RateLimitDecision.RESPOND
_KOD = RateLimitDecision.KOD
_DROP = RateLimitDecision.DROP


@dataclass(slots=True)
class _SourceState:
    """Accounting for one source address (slotted: one per spoofed flood)."""

    last_seen: float = 0.0
    score: float = 0.0
    kod_sent: bool = False
    drops: int = 0


@dataclass(slots=True)
class RateLimiter:
    """Leaky-bucket rate limiter keyed by source address.

    Slotted: ``check`` runs once per received query — millions per
    spoofing sweep — and slot access skips the instance ``__dict__``.

    Parameters mirror ntpd's defaults: a query "costs" ``average_interval``
    seconds of budget, the bucket drains in real time, and once the
    accumulated score exceeds ``burst_tolerance`` seconds the source is
    limited.  With the defaults, a source querying once per second exceeds
    the budget after roughly ``burst_tolerance / (average_interval - 1)``
    queries, which reproduces the "stops responding during the second half
    of 64 queries at 1/s" signature the scan of section VII-A looks for.
    """

    average_interval: float = 8.0
    burst_tolerance: float = 100.0
    send_kod: bool = True
    enabled: bool = True
    sources: dict[str, _SourceState] = field(default_factory=dict)
    queries_seen: int = 0
    queries_dropped: int = 0
    kods_sent: int = 0

    def check(self, source_ip: str, now: float) -> RateLimitDecision:
        """Account for one query from ``source_ip`` and decide the response.

        Runs once per received query (the hottest accounting loop of the
        rate-limit abuse scenarios), so the bucket arithmetic is written
        with branches instead of ``max()`` calls and a single state lookup,
        and the decision members are hoisted module constants.
        """
        self.queries_seen += 1
        if not self.enabled:
            return _RESPOND
        sources = self.sources
        state = sources.get(source_ip)
        if state is None:
            state = sources[source_ip] = _SourceState(last_seen=now)
        # Drain the bucket by the elapsed time (never backwards, never below
        # empty), then charge this query's cost.
        elapsed = now - state.last_seen
        score = state.score
        if elapsed > 0.0:
            score -= elapsed
            if score < 0.0:
                score = 0.0
        score += self.average_interval
        state.score = score
        state.last_seen = now

        if score <= self.burst_tolerance:
            return _RESPOND

        state.drops += 1
        self.queries_dropped += 1
        if self.send_kod and not state.kod_sent:
            state.kod_sent = True
            self.kods_sent += 1
            return _KOD
        return _DROP

    def is_limited(self, source_ip: str, now: float) -> bool:
        """True when ``source_ip`` would currently be denied service."""
        state = self.sources.get(source_ip)
        if state is None or not self.enabled:
            return False
        current = max(0.0, state.score - max(0.0, now - state.last_seen))
        return current > self.burst_tolerance

