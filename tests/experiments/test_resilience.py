"""Resilience tests: timeouts, retries, crash recovery, resumable stored sweeps.

Marked ``chaos`` alongside the fault-model property suite — ``make chaos``
runs both.  Worker-killing tests rely on the ``fork`` start method (the
Linux default), under which scenarios registered at test-module import are
visible inside pool workers.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.experiments import (
    ERROR_KINDS,
    ExperimentRunner,
    RetryPolicy,
    RunSpec,
    RunStore,
    SweepCancelled,
    make_grid,
    scenario,
)

pytestmark = pytest.mark.chaos


@scenario("_test_res_square")
def _test_res_square(x: int = 2) -> int:
    return x * x


@scenario("_test_res_fail")
def _test_res_fail() -> None:
    raise RuntimeError("always fails")


@scenario("_test_res_flaky")
def _test_res_flaky(marker: str = "", fail_times: int = 1, x: int = 7) -> int:
    """Fails the first ``fail_times`` attempts, then succeeds.

    Cross-attempt state lives in the ``marker`` file so the scenario stays
    a picklable top-level function.
    """
    attempts = 0
    if os.path.exists(marker):
        with open(marker) as handle:
            attempts = int(handle.read() or 0)
    attempts += 1
    with open(marker, "w") as handle:
        handle.write(str(attempts))
    if attempts <= fail_times:
        raise RuntimeError(f"flaky attempt {attempts}")
    return x


@scenario("_test_res_crash")
def _test_res_crash() -> None:
    os._exit(17)  # simulate OOM-kill / segfault: no exception, no cleanup


@scenario("_test_res_sleep")
def _test_res_sleep(seconds: float = 30.0, x: int = 0) -> int:
    time.sleep(seconds)
    return x


@scenario("_test_res_spin")
def _test_res_spin(seconds: float = 30.0, x: int = 0) -> int:
    """CPU-bound stall: only an in-process interrupt can stop it early."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        pass
    return x


@scenario("_test_res_interrupt_once")
def _test_res_interrupt_once(marker: str = "") -> int:
    """Raises KeyboardInterrupt on its first run (SIGINT landing mid-run)."""
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("1")
        raise KeyboardInterrupt
    return 1


def _kill_sweep(store: RunStore, sweep_id: str, keep: int, torn: bool = False) -> None:
    """Cut a stored sweep back to what a kill -9 leaves behind.

    The sweep's one segment keeps its first ``keep`` records (completion
    order) plus, with ``torn``, half of the next line — a kill mid-write.
    Sweeps cut this way are run with ``finish=False``, so their manifest
    still says ``running``, as a killed sweep's would.
    """
    (segment,) = store._segment_paths(sweep_id)
    with open(segment, "rb") as handle:
        lines = handle.readlines()
    with open(segment, "wb") as handle:
        handle.writelines(lines[:keep])
        if torn:
            handle.write(lines[keep][: len(lines[keep]) // 2])


class TestRetryPolicy:
    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=1.0)
        first = policy.delay("table2[seed=5]", 1)
        assert first == policy.delay("table2[seed=5]", 1)  # pure function
        assert 0.09 <= first <= 0.11  # ±10% jitter around 0.1
        second = policy.delay("table2[seed=5]", 2)
        assert 0.18 <= second <= 0.22
        assert policy.delay("table2[seed=5]", 10) <= 1.0 * 1.1  # capped
        assert policy.delay("other-label", 1) != first  # label feeds jitter

    def test_should_retry_respects_kinds_and_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry("worker-crash", 1)
        assert policy.should_retry("timeout", 2)
        assert not policy.should_retry("timeout", 3)  # attempts exhausted
        assert not policy.should_retry("scenario-error", 1)  # deterministic
        assert not policy.should_retry(None, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(retry_on=("cosmic-rays",))
        assert "scenario-error" in ERROR_KINDS

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.5)


class TestErrorTaxonomy:
    def test_scenario_error_kind(self):
        outcome = ExperimentRunner(max_workers=1).run(
            [RunSpec.make("_test_res_fail")]
        )[0]
        assert not outcome.ok
        assert outcome.error_kind == "scenario-error"
        assert outcome.attempts == 1
        assert "always fails" in outcome.error

    def test_success_has_no_kind(self):
        outcome = ExperimentRunner(max_workers=1).run(
            [RunSpec.make("_test_res_square", x=4)]
        )[0]
        assert outcome.ok and outcome.error_kind is None


class TestSerialRetry:
    def test_flaky_scenario_recovers(self, tmp_path):
        marker = str(tmp_path / "flaky")
        runner = ExperimentRunner(
            max_workers=1,
            retry=RetryPolicy(
                max_attempts=3,
                backoff_base=0.0,
                retry_on=("scenario-error",),
            ),
        )
        outcome = runner.run(
            [RunSpec.make("_test_res_flaky", marker=marker, fail_times=1, x=9)]
        )[0]
        assert outcome.ok
        assert outcome.result == 9
        assert outcome.attempts == 2

    def test_exhausted_retries_keep_last_failure(self, tmp_path):
        marker = str(tmp_path / "flaky")
        runner = ExperimentRunner(
            max_workers=1,
            retry=RetryPolicy(
                max_attempts=2, backoff_base=0.0, retry_on=("scenario-error",)
            ),
        )
        outcome = runner.run(
            [RunSpec.make("_test_res_flaky", marker=marker, fail_times=5)]
        )[0]
        assert not outcome.ok
        assert outcome.attempts == 2
        assert outcome.error_kind == "scenario-error"

    def test_default_policy_does_not_retry_scenario_errors(self, tmp_path):
        marker = str(tmp_path / "flaky")
        runner = ExperimentRunner(max_workers=1, retry=RetryPolicy(backoff_base=0.0))
        outcome = runner.run(
            [RunSpec.make("_test_res_flaky", marker=marker, fail_times=1)]
        )[0]
        assert not outcome.ok and outcome.attempts == 1


class TestWorkerCrash:
    def test_crash_is_typed_and_pool_recovers(self):
        specs = [
            RunSpec.make("_test_res_square", x=1),
            RunSpec.make("_test_res_crash"),
            RunSpec.make("_test_res_square", x=3),
            RunSpec.make("_test_res_square", x=4),
        ]
        runner = ExperimentRunner(max_workers=2, chunk_size=1)
        outcomes = runner.run(specs)
        by_label = {o.spec.label: o for o in outcomes}
        crash = by_label["_test_res_crash"]
        assert not crash.ok
        assert crash.error_kind == "worker-crash"
        # Every other spec survived the respawn (event-for-event results).
        assert by_label["_test_res_square[x=1]"].result == 1
        assert by_label["_test_res_square[x=3]"].result == 9
        assert by_label["_test_res_square[x=4]"].result == 16
        assert len(outcomes) == 4

    def test_crash_retry_counts_attempts(self):
        runner = ExperimentRunner(
            max_workers=2,
            chunk_size=1,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
        )
        outcomes = runner.run(
            [RunSpec.make("_test_res_crash"), RunSpec.make("_test_res_square", x=2)]
        )
        crash = next(o for o in outcomes if o.spec.scenario == "_test_res_crash")
        assert crash.error_kind == "worker-crash"
        assert crash.attempts == 2  # retried once, crashed again
        ok = next(o for o in outcomes if o.spec.scenario == "_test_res_square")
        assert ok.result == 4


class TestRunTimeout:
    def test_stalled_run_times_out_and_others_complete(self):
        specs = [
            RunSpec.make("_test_res_sleep", seconds=30.0, x=1),
            RunSpec.make("_test_res_square", x=5),
            RunSpec.make("_test_res_square", x=6),
        ]
        runner = ExperimentRunner(max_workers=2, chunk_size=1, run_timeout=1.0)
        start = time.monotonic()
        outcomes = runner.run(specs)
        elapsed = time.monotonic() - start
        assert elapsed < 15.0  # did not wait out the 30s sleep
        stalled = next(o for o in outcomes if o.spec.scenario == "_test_res_sleep")
        assert not stalled.ok
        assert stalled.error_kind == "timeout"
        squares = sorted(
            o.result for o in outcomes if o.spec.scenario == "_test_res_square"
        )
        assert squares == [25, 36]

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(run_timeout=0.0)


class TestProgress:
    def test_progress_emitted_per_completion(self):
        seen = []
        runner = ExperimentRunner(
            max_workers=1, on_progress=lambda done, total: seen.append((done, total))
        )
        runner.run(make_grid("_test_res_square", x=[1, 2, 3]))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_progress_throttled_but_final_guaranteed(self):
        seen = []
        runner = ExperimentRunner(
            max_workers=1,
            on_progress=lambda done, total: seen.append((done, total)),
            progress_interval=3600.0,  # swallow every intermediate emission
        )
        runner.run(make_grid("_test_res_square", x=[1, 2, 3]))
        assert seen[-1] == (3, 3)
        assert len(seen) <= 2


class TestCheckpointing:
    """Sweeps checkpoint through the run store; resume_stored continues them."""

    def grid(self):
        return make_grid("_test_res_square", x=list(range(6)))

    def test_checkpoint_lines_written_per_outcome(self, tmp_path):
        store = RunStore(str(tmp_path))
        specs = self.grid()
        outcomes = ExperimentRunner(max_workers=1).run_stored(
            store, "t", specs, sweep_id="s"
        )
        (segment,) = store._segment_paths("s")
        with open(segment) as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert len(lines) == len(specs)
        assert {entry["index"] for entry in lines} == set(range(len(specs)))
        for entry in lines:
            assert set(entry) >= {
                "index",
                "spec",
                "result",
                "wall_time",
                "error",
                "error_kind",
                "attempts",
            }
        assert [o.result for o in outcomes] == [x * x for x in range(6)]

    def test_killed_then_resumed_equals_uninterrupted(self, tmp_path):
        specs = self.grid()
        uninterrupted = ExperimentRunner(max_workers=1).run(specs)

        # Simulate a sweep killed partway: keep the first 3 records plus a
        # torn partial line from the kill mid-write.
        store = RunStore(str(tmp_path))
        ExperimentRunner(max_workers=1).run_stored(
            store, "t", specs, sweep_id="s", finish=False
        )
        _kill_sweep(store, "s", keep=3, torn=True)

        seen = []
        runner = ExperimentRunner(
            max_workers=1, on_progress=lambda done, total: seen.append((done, total))
        )
        resumed = runner.resume_stored(store, "s")
        assert [(o.spec, o.result, o.error, o.error_kind) for o in resumed] == [
            (o.spec, o.result, o.error, o.error_kind) for o in uninterrupted
        ]
        # Only the unfinished tail re-executed: 3 new completions on top of
        # the 3 replayed, ending at the full total.
        assert seen == [(4, 6), (5, 6), (6, 6)]
        assert store.manifest("s")["status"] == "complete"
        # And the store now covers the whole sweep: a second resume
        # replays everything without executing anything.
        seen.clear()
        again = runner.resume_stored(store, "s")
        assert [o.result for o in again] == [o.result for o in uninterrupted]
        assert seen == [(6, 6)]

    def test_failures_checkpoint_and_replay(self, tmp_path):
        store = RunStore(str(tmp_path))
        specs = [RunSpec.make("_test_res_fail"), RunSpec.make("_test_res_square", x=3)]
        first = ExperimentRunner(max_workers=1).run_stored(
            store, "t", specs, sweep_id="s"
        )
        replayed = ExperimentRunner(max_workers=1).resume_stored(store, "s")
        assert replayed[0].error == first[0].error
        assert replayed[0].error_kind == "scenario-error"
        assert replayed[1].result == 9

    def test_pool_mode_checkpoint_resume(self, tmp_path):
        """Stored sweeps resume under process fan-out, not just serially."""
        specs = make_grid(
            "table3_probabilities", trials=[10_000], m_max=[2, 3, 4, 5]
        )
        uninterrupted = ExperimentRunner(max_workers=2).run(specs)
        store = RunStore(str(tmp_path))
        ExperimentRunner(max_workers=2).run_stored(
            store, "t", specs, sweep_id="s", finish=False
        )
        _kill_sweep(store, "s", keep=2)
        resumed = ExperimentRunner(max_workers=2).resume_stored(store, "s")
        assert [o.result for o in resumed] == [o.result for o in uninterrupted]


class TestSerialWatchdog:
    """run_timeout is enforced in serial mode too, via in-process preemption."""

    def test_cpu_bound_run_interrupted_in_serial_mode(self):
        runner = ExperimentRunner(max_workers=1, run_timeout=0.5)
        specs = [
            RunSpec.make("_test_res_spin", seconds=30.0, x=1),
            RunSpec.make("_test_res_square", x=4),
        ]
        start = time.monotonic()
        outcomes = runner.run(specs)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0  # did not wait out the 30s busy-loop
        assert runner.last_execution_mode == "serial"
        assert outcomes[0].error_kind == "timeout"
        assert "watchdog" in outcomes[0].error
        # the interrupt did not leak into the next run
        assert outcomes[1].ok and outcomes[1].result == 16

    def test_serial_timeout_retries_via_policy(self):
        runner = ExperimentRunner(
            max_workers=1,
            run_timeout=0.3,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
        )
        outcome = runner.run([RunSpec.make("_test_res_spin", seconds=30.0)])[0]
        assert outcome.error_kind == "timeout"
        assert outcome.attempts == 2

    def test_fast_run_unaffected_by_watchdog(self):
        runner = ExperimentRunner(max_workers=1, run_timeout=30.0)
        outcomes = runner.run(make_grid("_test_res_square", x=[1, 2, 3]))
        assert [o.result for o in outcomes] == [1, 4, 9]


class TestGracefulCancellation:
    """SIGINT / sweep deadline flush finished outcomes; resume_stored()
    continues."""

    def test_interrupt_flushes_partial_results(self, tmp_path):
        marker = str(tmp_path / "interrupted")
        store = RunStore(str(tmp_path / "store"))
        specs = [
            RunSpec.make("_test_res_square", x=2),
            RunSpec.make("_test_res_interrupt_once", marker=marker),
            RunSpec.make("_test_res_square", x=5),
        ]
        runner = ExperimentRunner(max_workers=1)
        with pytest.raises(SweepCancelled) as excinfo:
            runner.run_stored(store, "t", specs, sweep_id="s")
        cancelled = excinfo.value
        assert cancelled.reason == "interrupt"
        assert cancelled.completed == 1 and cancelled.total == 3
        assert cancelled.outcomes[0].result == 4
        assert store.manifest("s")["status"] == "cancelled"
        # the flushed sweep resumes past the interruption point
        resumed = ExperimentRunner(max_workers=1).resume_stored(store, "s")
        assert [o.result for o in resumed] == [4, 1, 25]
        assert store.manifest("s")["status"] == "complete"

    def test_sweep_deadline_cancels_serial_sweep(self, tmp_path):
        store = RunStore(str(tmp_path))
        specs = [
            RunSpec.make("_test_res_sleep", seconds=0.2, x=i) for i in range(10)
        ]
        runner = ExperimentRunner(max_workers=1, sweep_timeout=0.5)
        start = time.monotonic()
        with pytest.raises(SweepCancelled) as excinfo:
            runner.run_stored(store, "t", specs, sweep_id="s")
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        cancelled = excinfo.value
        assert cancelled.reason == "deadline"
        assert 1 <= cancelled.completed < 10
        assert store.manifest("s")["status"] == "cancelled"
        assert sorted(store.load_outcomes("s")) == sorted(cancelled.outcomes)
        # every finished outcome is on disk; a resume completes the sweep
        resumed = ExperimentRunner(max_workers=1).resume_stored(store, "s")
        assert [o.result for o in resumed] == list(range(10))
        assert store.manifest("s")["status"] == "complete"

    def test_sweep_deadline_cancels_pool_sweep(self):
        specs = [
            RunSpec.make("_test_res_sleep", seconds=0.3, x=i) for i in range(12)
        ]
        runner = ExperimentRunner(
            max_workers=2, chunk_size=1, sweep_timeout=0.6
        )
        start = time.monotonic()
        with pytest.raises(SweepCancelled) as excinfo:
            runner.run(specs)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        assert excinfo.value.reason == "deadline"
        assert excinfo.value.completed < 12

    def test_invalid_sweep_timeout_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(sweep_timeout=0.0)


class TestProbationEngine:
    """Crash suspects re-run in isolated pools; the sweep stays parallel."""

    def test_clean_sweep_reports_zero_recovery(self):
        runner = ExperimentRunner(max_workers=2, chunk_size=1)
        runner.run(make_grid("_test_res_square", x=[1, 2, 3, 4]))
        assert runner.last_recovery == {
            "worker_crashes": 0,
            "probation_runs": 0,
            "timeouts": 0,
            "max_parallel_after_crash": 0,
        }

    def test_repeated_crashes_in_one_chunk(self):
        """A chunk holding two crashers fails cleanly however often it runs."""
        specs = [
            RunSpec.make("_test_res_crash"),
            RunSpec.make("_test_res_crash"),
            RunSpec.make("_test_res_square", x=2),
            RunSpec.make("_test_res_square", x=3),
        ]
        runner = ExperimentRunner(max_workers=2, chunk_size=2, retry=None)
        outcomes = runner.run(specs)
        assert [o.error_kind for o in outcomes[:2]] == [
            "worker-crash",
            "worker-crash",
        ]
        assert [o.result for o in outcomes[2:]] == [4, 9]

    def test_crash_during_probation_is_definitive_culprit(self):
        """A suspect that crashes its isolated pool fails with attempts
        counted across its probation re-runs.

        Only outcomes are asserted: the recovery counters depend on
        scheduling.  When the crasher happens to fly alone in the main
        pool, that first crash already fails it, and it needs one
        probation run fewer.
        """
        specs = [RunSpec.make("_test_res_crash")] + [
            RunSpec.make("_test_res_square", x=i) for i in range(5)
        ]
        runner = ExperimentRunner(
            max_workers=2,
            chunk_size=1,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
        )
        outcomes = runner.run(specs)
        crash = outcomes[0]
        assert crash.error_kind == "worker-crash"
        assert crash.attempts == 2  # retried in probation, crashed again
        assert [o.result for o in outcomes[1:]] == [0, 1, 4, 9, 16]
        assert all(o.ok for o in outcomes[1:])

    def test_resume_mid_quarantine_identical_to_uninterrupted(self, tmp_path):
        """Killing the driver while a crash is being attributed loses
        nothing: the resumed sweep matches an uninterrupted one."""
        specs = [
            RunSpec.make("_test_res_square", x=1),
            RunSpec.make("_test_res_crash"),
            RunSpec.make("_test_res_square", x=3),
            RunSpec.make("_test_res_square", x=4),
            RunSpec.make("_test_res_square", x=5),
        ]

        def runner():
            return ExperimentRunner(max_workers=2, chunk_size=1, retry=None)

        uninterrupted = runner().run(specs)
        store = RunStore(str(tmp_path))
        runner().run_stored(store, "t", specs, sweep_id="s", finish=False)
        # keep only the first two finished outcomes — the sweep dies while
        # the crash chunk is still in quarantine/probation
        _kill_sweep(store, "s", keep=2)
        resumed = runner().resume_stored(store, "s")
        assert [(o.spec, o.result, o.error_kind) for o in resumed] == [
            (o.spec, o.result, o.error_kind) for o in uninterrupted
        ]
