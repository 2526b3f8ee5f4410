"""Crash-injection for chaos campaigns: kill -9 mid-campaign.

The acceptance property for long-horizon campaigns: a campaign driver
killed with ``SIGKILL`` mid-phase leaves a store that passes ``fsck``,
and ``resume_chaos_campaign`` replays the remaining checkpoints, into one
fresh segment, to a summary bit-identical to an uninterrupted campaign.

Runs under ``make chaos`` (and the full tier-1 suite).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import RunStore
from repro.population.chaos import (
    CampaignHorizon,
    ChaosPhase,
    ChaosPlan,
    CorrelationGroup,
    resume_chaos_campaign,
    run_chaos_campaign,
)
from repro.population.spec import FaultRegimeSpec, PopulationSpec

pytestmark = pytest.mark.chaos

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def campaign_spec() -> PopulationSpec:
    return PopulationSpec(
        size=6,
        client_mix={"ntpd": 1.0},
        pool_size=16,
        warmup_seconds=300.0,
        max_duration_hours=0.5,
    )


def campaign_plan() -> ChaosPlan:
    return ChaosPlan(
        groups=(CorrelationGroup("east", 0.5), CorrelationGroup("west", 0.5)),
        regimes=(FaultRegimeSpec("blackout", kind="partition"),),
        phases=(
            ChaosPhase("calm", 600.0),
            ChaosPhase("storm", 600.0, regimes=(("east", "blackout"),)),
        ),
        horizon=CampaignHorizon(duration=1500.0, checkpoint_every=300.0),
    )


_CHILD_SOURCE = """
import sys
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import RunStore
from repro.population.chaos import ChaosPlan, run_chaos_campaign
from repro.population.spec import PopulationSpec

root, spec_json, plan_json = sys.argv[1:4]
run_chaos_campaign(
    RunStore(root),
    "kill",
    PopulationSpec.from_json(spec_json),
    ChaosPlan.from_json(plan_json),
    seed=3,
    runner=ExperimentRunner(max_workers=1),
)
"""


def _discover_sweep(store: RunStore) -> str:
    try:
        sweeps = store.sweeps()
    except Exception:
        return ""
    return sweeps[0] if sweeps else ""


def _count_records(store: RunStore, sweep_id: str) -> int:
    try:
        return len(store.records(sweep_id))
    except Exception:
        return 0


class TestCampaignSigkill:
    def test_kill9_mid_campaign_resumes_bit_identical(self, tmp_path):
        root = str(tmp_path / "store")
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _CHILD_SOURCE,
                root,
                campaign_spec().to_json(),
                campaign_plan().to_json(),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        store = RunStore(root)
        try:
            deadline = time.monotonic() + 60.0
            sweep_id = ""
            # Wait for the child's manifest to commit, then for at least
            # two checkpoint records, so the kill lands mid-campaign.
            while True:
                sweep_id = sweep_id or _discover_sweep(store)
                if sweep_id and _count_records(store, sweep_id) >= 2:
                    break
                if child.poll() is not None:
                    pytest.fail("campaign finished before the kill landed")
                if time.monotonic() > deadline:
                    pytest.fail("campaign never produced records to kill over")
                time.sleep(0.005)
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)

        # Simulate the torn in-flight line the kill can leave behind.
        (segment,) = store._segment_paths(sweep_id)
        with open(segment, "ab") as handle:
            handle.write(b'{"index": 9, "spec": {"scenario": "population_ch')

        report = store.fsck()
        assert report.ok, report.errors
        assert store.manifest(sweep_id)["status"] == "running"
        recorded = _count_records(store, sweep_id)
        assert 2 <= recorded < 5

        resumed = resume_chaos_campaign(
            store, sweep_id, runner=ExperimentRunner(max_workers=1)
        )

        reference = run_chaos_campaign(
            RunStore(str(tmp_path / "reference")),
            "kill",
            campaign_spec(),
            campaign_plan(),
            seed=3,
            runner=ExperimentRunner(max_workers=1),
        )
        # Bit-identical, aggregates included: the prefix the child wrote
        # and the suffix the resume replayed are indistinguishable from an
        # uninterrupted campaign.
        assert resumed["checkpoints"] == reference["checkpoints"]
        assert resumed["plan_digest"] == reference["plan_digest"]
        assert resumed["spec_digest"] == reference["spec_digest"]
        assert store.manifest(sweep_id)["status"] == "complete"
        assert store.fsck().ok
        # The resume wrote its checkpoints into exactly one new segment.
        assert store._segment_paths(sweep_id)[0] == segment
        assert len(store._segment_paths(sweep_id)) == 2
