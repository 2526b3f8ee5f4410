"""The fleet of one reproduces the single-victim golden run bit-for-bit.

Table II runs through :func:`~repro.population.fleet.run_fleet`: a
zero-noise, zero-churn, single-``ntpd`` spec with the population defaults
is the ``table2_runtime_attack`` ntpd/P1 cell — same events, same
packets, same achieved shift to the last bit.  The cell's equality with
the direct ``RunTimeAttack.run()`` path is pinned on all six Table II
cells by ``tests/integration/test_determinism.py``; this file pins the
fleet document against the golden constants, also under strict mode.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro.population.fleet
from repro.population.chaos import run_chaos_checkpoint, smoke_plan
from repro.population.fleet import run_fleet
from repro.population.landscape import smoke_spec
from repro.population.spec import PopulationSpec

#: The pinned golden numbers for (ntpd, P1, seed 5, pool 48, warmup 1500 s)
#: — the same cell every benchmark and the determinism suite pin.
GOLDEN = {
    "success": True,
    "minutes": 15.5,
    "shift": -500.00999995431766,
    "events_processed": 48106,
    "packets_transmitted": 24730,
}

DEGENERATE = PopulationSpec(size=1, client_mix={"ntpd": 1.0})

#: A fleet whose pool never rate-limits: every spoofed query is answered,
#: so the run is dominated by datagrams sent from a handler over uniform
#: pairs — the path that leaves the checksum to the receiver.
ANSWERED = PopulationSpec(
    size=4,
    pool_size=16,
    pool_rate_limit_fraction=0.0,
    warmup_seconds=600.0,
    max_duration_hours=0.25,
)

#: Recorded while the sender still folded every datagram's checksum and
#: the drain verified it (seed 3).
ANSWERED_GOLDEN = {
    "spec_digest": "8cb284448056f76d",
    "events_processed": 87667,
    "packets_transmitted": 58326,
    "shifts": [
        -0.011287667774467991,
        -0.014003876119204506,
        -0.008555787948580473,
        -0.009986033140421569,
    ],
    "document_digest": "79e901c539d334ad",
}


def _document_digest(document: dict) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class TestGoldenBitIdentity:
    def test_degenerate_fleet_matches_golden_constants(self):
        document = run_fleet(DEGENERATE, seed=5)
        assert document["size"] == 1
        assert document["successes"] == 1
        client = document["clients"][0]
        assert client["success"] is GOLDEN["success"]
        assert client["minutes"] == GOLDEN["minutes"]
        assert client["shift"] == GOLDEN["shift"]
        assert document["events_processed"] == GOLDEN["events_processed"]
        assert document["packets_transmitted"] == GOLDEN["packets_transmitted"]


class TestAnsweredTrafficGolden:
    def test_answered_fleet_matches_golden_constants(self):
        document = run_fleet(ANSWERED, seed=3)
        assert document["spec_digest"] == ANSWERED_GOLDEN["spec_digest"]
        assert document["events_processed"] == ANSWERED_GOLDEN["events_processed"]
        assert (
            document["packets_transmitted"]
            == ANSWERED_GOLDEN["packets_transmitted"]
        )
        shifts = [client["shift"] for client in document["clients"]]
        assert shifts == ANSWERED_GOLDEN["shifts"]
        assert _document_digest(document) == ANSWERED_GOLDEN["document_digest"]


def _strict_testbeds(monkeypatch) -> list:
    """Make every fleet testbed built from here on run a strict simulator."""
    build = repro.population.fleet.build_testbed
    built = []

    def build_strict(*args, **kwargs):
        testbed = build(*args, **kwargs)
        testbed.simulator.strict = True
        built.append(testbed)
        return testbed

    monkeypatch.setattr(repro.population.fleet, "build_testbed", build_strict)
    return built


class TestStrictModeBitIdentity:
    """The realistic fleet paths under the simulator's invariant guards.

    Strict runs take the guarded loop (heap monotonicity per pop, burst
    atomicity, full event accounting on every loop exit); the documents
    must equal the unguarded ones field for field.
    """

    def test_degenerate_fleet_identical_under_strict_mode(self, monkeypatch):
        plain = run_fleet(DEGENERATE, seed=5)
        built = _strict_testbeds(monkeypatch)
        strict = run_fleet(DEGENERATE, seed=5)
        assert len(built) == 1 and built[0].simulator.strict
        assert strict == plain
        assert strict["events_processed"] == GOLDEN["events_processed"]

    def test_chaos_smoke_checkpoint_identical_under_strict_mode(self, monkeypatch):
        plain = run_chaos_checkpoint(smoke_spec(), smoke_plan(), seed=0)
        built = _strict_testbeds(monkeypatch)
        strict = run_chaos_checkpoint(smoke_spec(), smoke_plan(), seed=0)
        assert len(built) == 1 and built[0].simulator.strict
        assert strict == plain

    def test_answered_fleet_identical_under_strict_mode(self, monkeypatch):
        plain = run_fleet(ANSWERED, seed=3)
        built = _strict_testbeds(monkeypatch)
        strict = run_fleet(ANSWERED, seed=3)
        assert len(built) == 1 and built[0].simulator.strict
        assert strict == plain
        assert _document_digest(strict) == ANSWERED_GOLDEN["document_digest"]
        servers = built[0].pool.servers.values()
        received = sum(server.stats.queries_received for server in servers)
        answered = sum(server.stats.responses_sent for server in servers)
        assert answered > received // 2 > 0
