"""Chaos campaigns end-to-end through the durable run store."""

from __future__ import annotations

import shutil

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import RunStore
from repro.measurement.report import degradation_report
from repro.population.chaos import (
    CampaignHorizon,
    ChaosPhase,
    ChaosPlan,
    campaign_specs,
    resume_chaos_campaign,
    run_chaos_campaign,
)
from repro.population.spec import FaultRegimeSpec, PopulationSpec


def tiny_spec() -> PopulationSpec:
    return PopulationSpec(
        size=2,
        client_mix={"ntpd": 1.0},
        pool_size=8,
        warmup_seconds=60.0,
        max_duration_hours=0.05,
    )


def tiny_plan() -> ChaosPlan:
    return ChaosPlan(
        groups=(("east", 0.5), ("west", 0.5)),
        regimes=(FaultRegimeSpec("blackout", kind="partition"),),
        phases=(
            ChaosPhase("calm", 100.0),
            ChaosPhase("storm", 100.0, regimes=(("east", "blackout"),)),
        ),
        horizon=CampaignHorizon(duration=250.0),
    )


@pytest.fixture(scope="module")
def campaign_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign")
    store = RunStore(str(root))
    campaign = run_chaos_campaign(
        store,
        "tiny",
        tiny_spec(),
        tiny_plan(),
        seed=3,
        runner=ExperimentRunner(max_workers=1),
    )
    return store, campaign


class TestRunCampaign:
    def test_sweep_completes_with_checkpoint_outcomes(self, campaign_store):
        store, campaign = campaign_store
        sweep_id = campaign["sweep_id"]
        assert store.manifest(sweep_id)["status"] == "complete"
        assert store.manifest(sweep_id)["metadata"]["kind"] == "chaos-campaign"
        done = store.load_outcomes(sweep_id)
        assert sorted(done) == [0, 1, 2]  # checkpoints 100, 200, 250
        assert store.fsck().ok

    def test_store_holds_only_checkpoint_outcomes(self, campaign_store):
        store, campaign = campaign_store
        records = store.records(campaign["sweep_id"])
        assert [r["index"] for r in records] == [0, 1, 2]
        # Each outcome carries the checkpoint's aggregate, and the
        # returned document is computed from those outcomes.
        assert [r["result"]["aggregate"] for r in records] == [
            c["aggregate"] for c in campaign["checkpoints"]
        ]

    def test_old_style_derived_records_still_resume(
        self, tmp_path, campaign_store
    ):
        store, campaign = campaign_store
        sweep_id = campaign["sweep_id"]
        shutil.copytree(store.sweep_dir(sweep_id), tmp_path / sweep_id)
        old = RunStore(str(tmp_path))
        # The derived records older stores hold after their outcomes.
        writer = old.open_sweep(sweep_id)
        stripped = []
        for entry in campaign["checkpoints"]:
            cell = {key: entry[key] for key in ("checkpoint", "until", "phase")}
            aggregate = entry["aggregate"]
            writer.append_record(
                {"kind": "chaos-checkpoint", "cell": cell, "aggregate": aggregate}
            )
            stripped.append({k: v for k, v in entry.items() if k != "aggregate"})
        writer.append_record(dict(campaign, checkpoints=stripped))
        writer.close()

        resumed = resume_chaos_campaign(
            old, sweep_id, runner=ExperimentRunner(max_workers=1)
        )
        assert resumed == campaign
        assert len(old.records(sweep_id)) == 7  # nothing re-ran or was added
        assert old.manifest(sweep_id)["status"] == "complete"
        assert old.fsck().ok

    def test_checkpoints_carry_phases_and_groups(self, campaign_store):
        _store, campaign = campaign_store
        checkpoints = campaign["checkpoints"]
        assert [c["until"] for c in checkpoints] == [100.0, 200.0, 250.0]
        assert [c["phase"] for c in checkpoints] == ["calm", "storm", ""]
        for checkpoint in checkpoints:
            assert set(checkpoint["groups"]) <= {"east", "west"}
        # The storm actually fired on the east group's links.
        storm = checkpoints[1]
        east = storm["groups"].get("east")
        assert east is None or east["fault_stats"]["dropped_partition"] >= 0
        assert storm["fault_stats"]["dropped_partition"] > 0

    def test_degradation_report_renders_timeline(self, campaign_store):
        _store, campaign = campaign_store
        text = degradation_report(campaign)
        assert "chaos campaign tiny" in text
        assert "calm" in text and "storm" in text
        assert "east ok" in text and "west ok" in text
        assert len(text.splitlines()) == 6  # title + header + rule + 3 rows


class TestResume:
    def test_resume_from_bare_manifest_matches_uninterrupted(
        self, tmp_path, campaign_store
    ):
        _store, campaign = campaign_store
        # A campaign killed before any checkpoint finished: the manifest
        # froze the specs, no outcome records exist.
        store = RunStore(str(tmp_path / "killed"))
        specs = campaign_specs(tiny_spec(), tiny_plan(), seed=3)
        writer = store.begin_sweep(
            "tiny", specs, sweep_id="killed", seed=3,
            metadata={"kind": "chaos-campaign"},
        )
        writer.close()
        assert store.manifest("killed")["status"] == "running"

        resumed = resume_chaos_campaign(
            store, "killed", runner=ExperimentRunner(max_workers=1)
        )
        assert store.manifest("killed")["status"] == "complete"
        # Bit-identical to the uninterrupted campaign, checkpoint by
        # checkpoint (aggregates included).
        assert [c for c in resumed["checkpoints"]] == [
            c for c in campaign["checkpoints"]
        ]
        assert resumed["plan_digest"] == campaign["plan_digest"]
        assert resumed["spec_digest"] == campaign["spec_digest"]

    def test_resume_of_complete_campaign_is_idempotent(self, campaign_store):
        store, campaign = campaign_store
        resumed = resume_chaos_campaign(
            store, campaign["sweep_id"], runner=ExperimentRunner(max_workers=1)
        )
        assert resumed["checkpoints"] == campaign["checkpoints"]
        assert store.manifest(campaign["sweep_id"])["status"] == "complete"
        assert store.fsck().ok
