"""Durable run store: manifests, segments, repair, fsck, CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.experiments import (
    ExperimentRunner,
    RunOutcome,
    RunSpec,
    RunStore,
    StoreError,
    scenario,
)
from repro.experiments.store import (
    STORE_SCHEMA,
    atomic_write_json,
    outcome_document,
    repair_segment,
    scan_records,
)
from repro.experiments.__main__ import main as store_cli


@scenario("_test_store_double")
def _test_store_double(x: int = 1) -> int:
    return 2 * x


@scenario("_test_store_fail")
def _test_store_fail() -> None:
    raise RuntimeError("store test failure")


@scenario("_test_store_unjson")
def _test_store_unjson() -> object:
    return object()  # not JSON-serialisable: breaks the store append


def _specs(n: int = 4) -> list[RunSpec]:
    return [RunSpec.make("_test_store_double", x=i) for i in range(n)]


class TestManifest:
    def test_begin_sweep_commits_manifest_before_records(self, tmp_path):
        store = RunStore(str(tmp_path))
        writer = store.begin_sweep("t", _specs(), sweep_id="s1", seed=7)
        manifest = store.manifest("s1")
        assert manifest["schema"] == STORE_SCHEMA
        assert manifest["status"] == "running"
        assert manifest["seed"] == 7
        assert len(manifest["specs"]) == 4
        writer.close()
        store.finish_sweep("s1", "complete")
        assert store.manifest("s1")["status"] == "complete"

    def test_begin_refuses_existing_sweep(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.begin_sweep("t", sweep_id="dup").close()
        with pytest.raises(StoreError, match="already exists"):
            store.begin_sweep("t", sweep_id="dup")

    def test_generated_ids_in_one_second_do_not_collide(
        self, tmp_path, monkeypatch
    ):
        # Every sweep below is begun "within the same second".
        monkeypatch.setattr(
            "repro.experiments.store.time.strftime", lambda *args: "T0"
        )
        store = RunStore(str(tmp_path))
        runner = ExperimentRunner(max_workers=1)
        ids = []
        for _ in range(3):
            runner.run_stored(store, "x", _specs(2))
            ids.append(runner.last_sweep_id)
        base = f"x-T0-{os.getpid()}"
        assert ids == [base, f"{base}-2", f"{base}-3"]
        assert store.sweeps() == sorted(ids)
        for sweep_id in ids:
            assert store.manifest(sweep_id)["status"] == "complete"
            assert [o.result for o in store.load_outcomes(sweep_id).values()] == [0, 2]

    def test_invalid_sweep_ids_rejected(self, tmp_path):
        store = RunStore(str(tmp_path))
        for bad in ("", ".", "..", f"a{os.sep}b"):
            with pytest.raises(StoreError):
                store.sweep_dir(bad)

    def test_atomic_write_replaces_never_tears(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2})
        with open(path) as handle:
            assert json.load(handle) == {"v": 2}
        # no stale temp files left behind
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_specs_roundtrip_through_manifest(self, tmp_path):
        store = RunStore(str(tmp_path))
        declared = _specs(3)
        store.begin_sweep("t", declared, sweep_id="s").close()
        assert store.specs("s") == declared

    def test_specs_missing_is_actionable(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.begin_sweep("t", None, sweep_id="s").close()
        with pytest.raises(StoreError, match="no spec list"):
            store.specs("s")


class TestSegments:
    def test_records_append_in_order_across_segments(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.begin_sweep("t", sweep_id="s").close()
        for batch in range(3):
            writer = store.open_sweep("s")
            writer.append_record({"batch": batch})
            writer.close()
        assert [r["batch"] for r in store.records("s")] == [0, 1, 2]
        # begin_sweep opened segment 1; each resume opened a fresh one
        assert len(store._segment_paths("s")) == 4

    def test_closed_writer_refuses_appends(self, tmp_path):
        store = RunStore(str(tmp_path))
        writer = store.begin_sweep("t", sweep_id="s")
        writer.close()
        with pytest.raises(StoreError, match="closed"):
            writer.append_record({"x": 1})

    def test_unserialisable_record_is_typed_error(self, tmp_path):
        store = RunStore(str(tmp_path))
        writer = store.begin_sweep("t", sweep_id="s")
        with pytest.raises(StoreError, match="JSON-serialisable"):
            writer.append_record({"bad": object()})
        writer.close()


class TestScanRepair:
    def _segment(self, tmp_path, payload: bytes) -> str:
        path = str(tmp_path / "segment-0001.jsonl")
        with open(path, "wb") as handle:
            handle.write(payload)
        return path

    def test_torn_tail_skipped_and_reported(self, tmp_path):
        path = self._segment(tmp_path, b'{"a": 1}\n{"b": 2}\n{"c": ')
        records, repairs = scan_records(path)
        assert records == [{"a": 1}, {"b": 2}]
        assert [e.reason for e in repairs] == ["torn-tail"]

    def test_parseable_torn_tail_is_kept_but_reported(self, tmp_path):
        path = self._segment(tmp_path, b'{"a": 1}\n{"b": 2}')
        records, repairs = scan_records(path)
        assert records == [{"a": 1}, {"b": 2}]
        assert [e.reason for e in repairs] == ["torn-tail"]

    def test_midfile_corruption_skipped_not_fatal(self, tmp_path):
        path = self._segment(
            tmp_path, b'{"a": 1}\ngarbage not json\n{"c": 3}\n'
        )
        records, repairs = scan_records(path)
        assert records == [{"a": 1}, {"c": 3}]
        assert [e.reason for e in repairs] == ["corrupt-record"]
        assert repairs[0].line_number == 2

    def test_nul_hole_from_truncation_detected(self, tmp_path):
        path = self._segment(tmp_path, b'{"a": 1}\n' + b"\x00" * 32 + b'\n{"c": 3}\n')
        records, repairs = scan_records(path)
        assert records == [{"a": 1}, {"c": 3}]
        assert [e.reason for e in repairs] == ["corrupt-record"]

    def test_non_object_json_line_reported(self, tmp_path):
        path = self._segment(tmp_path, b'{"a": 1}\n[1, 2, 3]\n')
        records, repairs = scan_records(path)
        assert records == [{"a": 1}]
        assert [e.reason for e in repairs] == ["not-an-object"]

    def test_repair_preserves_valid_lines_byte_for_byte(self, tmp_path):
        good = b'{"a": 1, "deep": {"k": [1, 2]}}\n'
        path = self._segment(tmp_path, good + b"junk\n" + good + b'{"torn": ')
        events = repair_segment(path)
        assert len(events) == 2
        with open(path, "rb") as handle:
            assert handle.read() == good + good
        # a second repair is a no-op
        assert repair_segment(path) == []

    def test_missing_segment_reads_empty(self, tmp_path):
        records, repairs = scan_records(str(tmp_path / "nope.jsonl"))
        assert records == [] and repairs == []


class TestLoadOutcomes:
    def test_later_records_win(self, tmp_path):
        store = RunStore(str(tmp_path))
        specs = _specs(2)
        writer = store.begin_sweep("t", specs, sweep_id="s")
        runner = ExperimentRunner(max_workers=1)
        outcomes = runner.run(specs)
        writer.append(0, outcomes[0])
        writer.append(1, outcomes[1])
        writer.append(0, outcomes[0])  # resume duplicate
        writer.close()
        done = store.load_outcomes("s")
        assert sorted(done) == [0, 1]
        assert done[0].result == 0 and done[1].result == 2

    def test_out_of_range_index_raises(self, tmp_path):
        store = RunStore(str(tmp_path))
        writer = store.begin_sweep("t", _specs(1), sweep_id="s")
        writer.append_record({"index": 9, "spec": {"scenario": "x", "params": []}})
        writer.close()
        with pytest.raises(StoreError, match="out of range"):
            store.load_outcomes("s")

    def test_foreign_spec_raises(self, tmp_path):
        store = RunStore(str(tmp_path))
        specs = _specs(1)
        writer = store.begin_sweep("t", specs, sweep_id="s")
        writer.append_record(
            {"index": 0, "spec": {"scenario": "other", "params": []}}
        )
        writer.close()
        with pytest.raises(StoreError, match="different sweep"):
            store.load_outcomes("s")

    def test_unknown_outcome_keys_are_ignored(self, tmp_path):
        """Outcome records carrying keys the loader no longer knows (fields
        an older version wrote) still load; the extra keys are dropped.  So
        does an error kind no runner records any more (``timeout``)."""
        store = RunStore(str(tmp_path))
        specs = _specs(2)
        writer = store.begin_sweep("t", specs, sweep_id="s")
        outcome = ExperimentRunner(max_workers=1).run(specs[:1])[0]
        document = outcome_document(0, outcome)
        document["retired_block"] = {"stages": {}, "decode_seconds": 0.0}
        document["attempts"] = 2
        writer.append_record(document)
        stalled = RunOutcome(spec=specs[1], error="run exceeded its 1.0s deadline")
        document = outcome_document(1, stalled)
        document["error_kind"] = "timeout"
        writer.append_record(document)
        writer.close()
        done = store.load_outcomes("s")
        assert done[0].result == 0 and done[0].ok
        assert not hasattr(done[0], "retired_block")
        assert not hasattr(done[0], "attempts")
        assert done[1].error_kind == "timeout" and not done[1].ok

    def test_metric_samples_ignored_by_outcome_loader(self, tmp_path):
        store = RunStore(str(tmp_path))
        writer = store.begin_sweep("t", _specs(1), sweep_id="s")
        writer.append_record({"kind": "bench-sample", "metrics": {"m": 1.0}})
        writer.close()
        assert store.load_outcomes("s") == {}


class TestFsckCompaction:
    def _stored_sweep(self, tmp_path, n: int = 4) -> RunStore:
        store = RunStore(str(tmp_path))
        runner = ExperimentRunner(max_workers=1)
        runner.run_stored(store, "t", _specs(n), sweep_id="s")
        return store

    def test_clean_store_passes(self, tmp_path):
        store = self._stored_sweep(tmp_path)
        report = store.fsck()
        assert report.ok and report.records == 4 and not report.repaired

    def test_damage_found_then_repaired(self, tmp_path):
        store = self._stored_sweep(tmp_path)
        segment = store._segment_paths("s")[0]
        with open(segment, "ab") as handle:
            handle.write(b'{"index": 3, "torn')
        report = store.fsck()
        assert report.ok and len(report.repaired) == 1
        report = store.fsck(repair=True)
        assert len(report.repaired) == 1
        assert store.fsck().repaired == []

    def test_repair_removes_stale_tmp_and_empty_segments(self, tmp_path):
        store = self._stored_sweep(tmp_path)
        directory = store.sweep_dir("s")
        stale = os.path.join(directory, "MANIFEST.json.tmp.999")
        open(stale, "w").close()
        empty = os.path.join(directory, "segment-0099.jsonl")
        open(empty, "w").close()
        report = store.fsck(repair=True)
        assert sorted(report.removed_files) == sorted([stale, empty])
        assert not os.path.exists(stale) and not os.path.exists(empty)

    def test_schema_mismatch_is_an_error(self, tmp_path):
        store = self._stored_sweep(tmp_path)
        manifest = store.manifest("s")
        manifest["schema"] = "something-else/9"
        atomic_write_json(store._manifest_path("s"), manifest)
        report = store.fsck()
        assert not report.ok and "schema" in report.errors[0]


class TestRunnerIntegration:
    def test_run_stored_and_resume_identical(self, tmp_path):
        store = RunStore(str(tmp_path))
        specs = _specs(5)
        runner = ExperimentRunner(max_workers=1)
        outcomes = runner.run_stored(store, "t", specs, sweep_id="s")
        assert [o.result for o in outcomes] == [0, 2, 4, 6, 8]
        assert store.manifest("s")["status"] == "complete"
        resumed = runner.resume_stored(store, "s")
        assert [(o.spec, o.result) for o in resumed] == [
            (o.spec, o.result) for o in outcomes
        ]

    def test_resume_stored_rebuilds_specs_from_manifest(self, tmp_path):
        store = RunStore(str(tmp_path))
        specs = _specs(3)
        runner = ExperimentRunner(max_workers=1)
        runner.run_stored(store, "t", specs, sweep_id="s")
        # resume with specs=None: only the manifest knows the grid
        fresh_runner = ExperimentRunner(max_workers=1)
        resumed = fresh_runner.resume_stored(store, "s")
        assert [o.result for o in resumed] == [0, 2, 4]

    def test_failed_sweep_stamps_failed_status(self, tmp_path):
        store = RunStore(str(tmp_path))
        runner = ExperimentRunner(max_workers=1)
        specs = [RunSpec.make("_test_store_unjson")]
        with pytest.raises(StoreError):
            runner.run_stored(store, "t", specs, sweep_id="s")
        assert store.manifest("s")["status"] == "failed"

    def test_errors_recorded_not_raised(self, tmp_path):
        store = RunStore(str(tmp_path))
        specs = [RunSpec.make("_test_store_fail")]
        runner = ExperimentRunner(max_workers=1)
        outcomes = runner.run_stored(store, "t", specs, sweep_id="s")
        assert outcomes[0].error_kind == "scenario-error"
        done = store.load_outcomes("s")
        assert done[0].error_kind == "scenario-error"
        assert store.manifest("s")["status"] == "complete"


class TestCli:
    def _store_with_sweep(self, tmp_path) -> RunStore:
        store = RunStore(str(tmp_path))
        runner = ExperimentRunner(max_workers=1)
        runner.run_stored(store, "cli", _specs(2), sweep_id="s")
        return store

    def test_fsck_clean_exits_zero(self, tmp_path, capsys):
        self._store_with_sweep(tmp_path)
        assert store_cli(["fsck", str(tmp_path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_fsck_missing_store(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere")
        assert store_cli(["fsck", missing]) == 2
        assert store_cli(["fsck", missing, "--allow-missing"]) == 0

    def test_fsck_reports_errors_exit_one(self, tmp_path, capsys):
        store = self._store_with_sweep(tmp_path)
        manifest = store.manifest("s")
        manifest["schema"] = "bogus/0"
        atomic_write_json(store._manifest_path("s"), manifest)
        assert store_cli(["fsck", str(tmp_path)]) == 1

    def test_report(self, tmp_path, capsys):
        self._store_with_sweep(tmp_path)
        assert store_cli(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "s: cli [complete]" in out
        assert store_cli(["report", str(tmp_path), "s"]) == 0
        out = capsys.readouterr().out
        assert "_test_store_double" in out and "status: complete" in out

    def test_module_entry_point_runs_without_runpy_warning(self, tmp_path):
        self._store_with_sweep(tmp_path)
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        command = ["-W", "default", "-m", "repro.experiments", "fsck", str(tmp_path)]
        child = subprocess.run(
            [sys.executable, *command],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert "RuntimeWarning" not in child.stderr
        assert "ok" in child.stdout
