"""Resilience tests: crash recovery, resumable stored sweeps, cancellation.

Marked ``chaos`` alongside the fault-model property suite — ``make chaos``
runs both.  Worker-killing tests rely on the ``fork`` start method (the
Linux default), under which scenarios registered at test-module import are
visible inside pool workers.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import (
    ExperimentRunner,
    RunSpec,
    RunStore,
    SweepCancelled,
    make_grid,
    scenario,
)
from repro.experiments.store import atomic_write_json

pytestmark = pytest.mark.chaos


@scenario("_test_res_square")
def _test_res_square(x: int = 2) -> int:
    return x * x


@scenario("_test_res_fail")
def _test_res_fail() -> None:
    raise RuntimeError("always fails")


@scenario("_test_res_crash")
def _test_res_crash(marker: str = "") -> None:
    if marker:
        open(marker, "w").close()
    os._exit(17)  # simulate OOM-kill / segfault: no exception, no cleanup


@scenario("_test_res_square_after")
def _test_res_square_after(x: int = 2, after: str = "", seconds: float = 0.3) -> int:
    """Waits for the crasher's ``after`` marker, then ``seconds`` more, so the
    crash lands while this run is still in flight."""
    deadline = time.monotonic() + 30.0
    while after and not os.path.exists(after) and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(seconds)
    return x * x


@scenario("_test_res_interrupt_once")
def _test_res_interrupt_once(marker: str = "") -> int:
    """Raises KeyboardInterrupt on its first run (SIGINT landing mid-run)."""
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("1")
        raise KeyboardInterrupt
    return 1


#: Spec parameters of every :func:`_test_res_driver_sentinel` run made
#: outside a :class:`_FakePool` worker, i.e. in the driver.
DRIVER_RUNS: list[int] = []


@scenario("_test_res_driver_sentinel")
def _test_res_driver_sentinel(x: int = 0) -> int:
    """A crash suspect that must only ever run in a (fake) pool worker."""
    if not _FakePool.running:
        DRIVER_RUNS.append(x)
    return x * x


class _FakeFuture(Future):
    """A future of :class:`_FakePool`; reading its result settles it."""

    def __init__(self, pool: "_FakePool", specs: tuple) -> None:
        super().__init__()
        self.pool = pool
        self.specs = specs

    def result(self, timeout=None):
        pool = self.pool
        alone = pool.in_flight == [self]
        pool.in_flight.remove(self)
        if pool.broken:
            if alone:  # it broke the pool on its own: the definitive culprit
                pool.suspects.discard(self.specs)
            raise BrokenProcessPool("a worker process died")
        pool.suspects.discard(self.specs)
        return super().result(timeout)


class _FakePool:
    """In-process stand-in for the engine's process pool.

    ``submit`` runs a chunk synchronously.  A chunk holding ``crasher``
    breaks the pool the way a dying worker does: every future still in
    flight (submitted, result not yet read) then reads
    ``BrokenProcessPool``, and later submits raise it.  Each chunk a break
    catches is a crash suspect until its result is read on a working pool,
    or it breaks a pool alone.  ``suspects`` is shared by the respawned
    pools; ``suspect_flights`` gets the flight size at every submit made
    while a suspect is unsettled.  ``running`` is true while a chunk runs
    "in a worker".
    """

    running = False

    def __init__(self, crasher: RunSpec, suspects: set, suspect_flights: list) -> None:
        self.crasher = crasher
        self.suspects = suspects
        self.suspect_flights = suspect_flights
        self.in_flight: list[_FakeFuture] = []
        self.broken = False

    def submit(self, fn, specs):
        if self.broken:
            self.suspects.add(specs)
            raise BrokenProcessPool("the pool is broken")
        future = _FakeFuture(self, specs)
        self.in_flight.append(future)
        if self.suspects:
            self.suspect_flights.append(len(self.in_flight))
        if self.crasher in specs:
            self.broken = True
            self.suspects.update(f.specs for f in self.in_flight)
            future.set_result(None)
        else:
            _FakePool.running = True
            try:
                future.set_result(fn(specs))
            finally:
                _FakePool.running = False
        return future

    def shutdown(self, wait=True, cancel_futures=False) -> None:
        pass


def _kill_sweep(store: RunStore, sweep_id: str, keep: int, torn: bool = False) -> None:
    """Cut a stored sweep back to what a kill -9 leaves behind.

    The sweep's one segment keeps its first ``keep`` records (completion
    order) plus, with ``torn``, half of the next line — a kill mid-write.
    The manifest is stamped ``running`` again, as a killed sweep's would
    still say.
    """
    (segment,) = store._segment_paths(sweep_id)
    with open(segment, "rb") as handle:
        lines = handle.readlines()
    with open(segment, "wb") as handle:
        handle.writelines(lines[:keep])
        if torn:
            handle.write(lines[keep][: len(lines[keep]) // 2])
    manifest = store.manifest(sweep_id)
    manifest["status"] = "running"
    del manifest["finished_at"]
    atomic_write_json(store._manifest_path(sweep_id), manifest)


class TestErrorTaxonomy:
    def test_scenario_error_kind(self):
        outcome = ExperimentRunner(max_workers=1).run(
            [RunSpec.make("_test_res_fail")]
        )[0]
        assert not outcome.ok
        assert outcome.error_kind == "scenario-error"
        assert "always fails" in outcome.error

    def test_success_has_no_kind(self):
        outcome = ExperimentRunner(max_workers=1).run(
            [RunSpec.make("_test_res_square", x=4)]
        )[0]
        assert outcome.ok and outcome.error_kind is None


class TestWorkerCrash:
    def test_crash_is_typed_and_pool_recovers(self):
        specs = [
            RunSpec.make("_test_res_square", x=1),
            RunSpec.make("_test_res_crash"),
            RunSpec.make("_test_res_square", x=3),
            RunSpec.make("_test_res_square", x=4),
        ]
        runner = ExperimentRunner(max_workers=2)
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
            }
        assert [o.result for o in outcomes] == [x * x for x in range(6)]

    def test_killed_then_resumed_equals_uninterrupted(self, tmp_path):
        specs = self.grid()
        uninterrupted = ExperimentRunner(max_workers=1).run(specs)

        # Simulate a sweep killed partway: keep the first 3 records plus a
        # torn partial line from the kill mid-write.
        store = RunStore(str(tmp_path))
        ExperimentRunner(max_workers=1).run_stored(store, "t", specs, sweep_id="s")
        _kill_sweep(store, "s", keep=3, torn=True)

        runner = ExperimentRunner(max_workers=1)
        resumed = runner.resume_stored(store, "s")
        assert [(o.spec, o.result, o.error, o.error_kind) for o in resumed] == [
            (o.spec, o.result, o.error, o.error_kind) for o in uninterrupted
        ]
        # Only the unfinished tail re-executed: 3 new records on top of
        # the 3 replayed (the torn line is not a record).
        assert len(store.records("s")) == 6
        assert store.manifest("s")["status"] == "complete"
        # And the store now covers the whole sweep: a second resume
        # replays everything without executing anything.
        again = runner.resume_stored(store, "s")
        assert [o.result for o in again] == [o.result for o in uninterrupted]
        assert len(store.records("s")) == 6

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
        ExperimentRunner(max_workers=2).run_stored(store, "t", specs, sweep_id="s")
        _kill_sweep(store, "s", keep=2)
        resumed = ExperimentRunner(max_workers=2).resume_stored(store, "s")
        assert [o.result for o in resumed] == [o.result for o in uninterrupted]


class TestGracefulCancellation:
    """SIGINT flushes finished outcomes; resume_stored() continues."""

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
        assert "SIGINT" in str(cancelled)
        assert cancelled.completed == 1 and cancelled.total == 3
        assert cancelled.outcomes[0].result == 4
        assert store.manifest("s")["status"] == "cancelled"
        # the flushed sweep resumes past the interruption point
        resumed = ExperimentRunner(max_workers=1).resume_stored(store, "s")
        assert [o.result for o in resumed] == [4, 1, 25]
        assert store.manifest("s")["status"] == "complete"


class TestSuspectReruns:
    """Crash suspects re-run one at a time, each alone in the respawned pool."""

    def test_clean_sweep_reports_zero_recovery(self):
        runner = ExperimentRunner(max_workers=2)
        runner.run(make_grid("_test_res_square", x=[1, 2, 3, 4]))
        assert runner.last_recovery == {"worker_crashes": 0}

    def test_suspects_rerun_alone_until_settled(self):
        """While any crash suspect is unsettled, at most one chunk is in
        flight; the crasher fails and every innocent completes.

        An in-process fake pool makes this exact: no workers, no sleeps.
        Eight specs on two workers chunk one spec each, so the first break
        catches the crasher and the innocent submitted just before it.
        """
        crasher = RunSpec.make("_test_res_fail")  # never run: breaks the pool
        specs = [RunSpec.make("_test_res_square", x=x) for x in range(8)]
        specs[3] = crasher
        runner = ExperimentRunner(max_workers=2)
        assert runner._chunk(specs) == [(spec,) for spec in specs]
        suspects: set = set()
        suspect_flights: list[int] = []
        pools: list[_FakePool] = []

        def make_pool():
            # Bounded respawns: an engine that never settles its suspects
            # ends in SweepCancelled (and fails below) instead of looping
            # forever.
            if len(pools) == 10:
                raise OSError("no more pools")
            pools.append(_FakePool(crasher, suspects, suspect_flights))
            return pools[-1]

        runner._make_pool = make_pool
        outcomes = runner.run(specs)
        # two suspects (spec 2 and the crasher), each re-run once, alone
        assert suspect_flights == [1, 1]
        assert not suspects
        assert outcomes[3].error_kind == "worker-crash"
        innocents = outcomes[:3] + outcomes[4:]
        assert all(o.ok for o in innocents)
        assert [o.result for o in innocents] == [
            x * x for x in range(8) if x != 3
        ]
        # the first break, then the crasher's solo re-run
        assert runner.last_recovery == {"worker_crashes": 2}
        assert len(pools) == 3

    def test_repeated_crashes_in_one_chunk(self):
        """A chunk holding two crashers fails cleanly however often it runs.

        Ten specs on two workers chunk in pairs, so the crashers share one.
        """
        specs = [RunSpec.make("_test_res_crash")] * 2 + [
            RunSpec.make("_test_res_square", x=x) for x in range(2, 10)
        ]
        runner = ExperimentRunner(max_workers=2)
        assert runner._chunk(specs)[0] == (specs[0], specs[1])
        outcomes = runner.run(specs)
        assert [o.error_kind for o in outcomes[:2]] == [
            "worker-crash",
            "worker-crash",
        ]
        assert [o.result for o in outcomes[2:]] == [x * x for x in range(2, 10)]

    def test_crash_during_suspect_rerun_is_definitive_culprit(self):
        """A suspect that crashes the pool while running alone in it is the
        definitive culprit; every innocent completes.

        Only outcomes are asserted: the recovery counters depend on
        scheduling.  When the crasher happens to fly alone in the first
        place, that first crash already fails it, and it needs one re-run
        fewer.
        """
        specs = [RunSpec.make("_test_res_crash")] + [
            RunSpec.make("_test_res_square", x=i) for i in range(5)
        ]
        runner = ExperimentRunner(max_workers=2)
        outcomes = runner.run(specs)
        crash = outcomes[0]
        assert crash.error_kind == "worker-crash"
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
            return ExperimentRunner(max_workers=2)

        uninterrupted = runner().run(specs)
        store = RunStore(str(tmp_path))
        runner().run_stored(store, "t", specs, sweep_id="s")
        # keep only the first two finished outcomes — the sweep dies while
        # the crash chunk is still in quarantine
        _kill_sweep(store, "s", keep=2)
        resumed = runner().resume_stored(store, "s")
        assert [(o.spec, o.result, o.error_kind) for o in resumed] == [
            (o.spec, o.result, o.error_kind) for o in uninterrupted
        ]

    def test_in_flight_innocents_rerun_solo_and_complete(self, tmp_path):
        """Innocents still in flight when a worker dies are suspects: each
        re-runs alone through the respawned pool and completes, and the
        crasher alone fails."""
        marker = str(tmp_path / "crashed")
        specs = [RunSpec.make("_test_res_crash", marker=marker)] + [
            RunSpec.make("_test_res_square_after", x=x, after=marker)
            for x in range(1, 5)
        ]
        runner = ExperimentRunner(max_workers=2)
        outcomes = runner.run(specs)
        assert outcomes[0].error_kind == "worker-crash"
        assert [o.result for o in outcomes[1:]] == [1, 4, 9, 16]
        assert all(o.ok for o in outcomes[1:])
        assert runner.last_recovery["worker_crashes"] >= 1


class TestRecoveryFallbacks:
    """The degraded paths taken when a replacement pool cannot start."""

    def test_crash_suspects_never_run_in_the_driver(self, tmp_path):
        """No pool can respawn after a crash: the driver runs only chunks
        that never flew, the suspects stay unrecorded, the sweep is
        cancelled, and a resume re-runs the suspects in a fresh pool.

        Eight specs on two workers chunk one spec each; the crash catches
        spec 2 and the crasher (spec 3) in flight.
        """
        DRIVER_RUNS.clear()
        crasher = RunSpec.make("_test_res_driver_sentinel", x=3)
        specs = [RunSpec.make("_test_res_square", x=x) for x in range(8)]
        specs[3] = crasher
        store = RunStore(str(tmp_path))
        runner = ExperimentRunner(max_workers=2)
        pools: list[_FakePool] = []

        def first_pool_only():
            if pools:
                raise OSError("no replacement pool")
            pools.append(_FakePool(crasher, set(), []))
            return pools[-1]

        runner._make_pool = first_pool_only
        with pytest.raises(SweepCancelled) as excinfo:
            runner.run_stored(store, "t", specs, sweep_id="s")
        cancelled = excinfo.value
        assert "SIGINT" not in str(cancelled)
        assert DRIVER_RUNS == []
        assert sorted(cancelled.outcomes) == [0, 1, 4, 5, 6, 7]
        assert all(o.ok for o in cancelled.outcomes.values())
        assert store.manifest("s")["status"] == "cancelled"
        assert runner.last_execution_mode == "serial (process pool unavailable)"

        # The resumed sweep runs the two suspects in a pool that works.
        healthy = RunSpec.make("_test_res_square", x=-1)  # in no chunk
        resumer = ExperimentRunner(max_workers=2)
        resumer._make_pool = lambda: _FakePool(healthy, set(), [])
        resumed = resumer.resume_stored(store, "s")
        assert DRIVER_RUNS == []
        assert [o.result for o in resumed] == [x * x for x in range(8)]
        assert store.manifest("s")["status"] == "complete"

    def test_one_unrecorded_suspect_resumes_in_a_pool(self, tmp_path):
        """A pool runner sends a sweep with one spec left through the pool
        too, so a crash suspect that is the last unrecorded spec never
        runs in the driver on resume."""
        specs = [RunSpec.make("_test_res_square", x=x) for x in range(2)]
        specs.append(RunSpec.make("_test_res_driver_sentinel", x=2))
        store = RunStore(str(tmp_path))
        ExperimentRunner(max_workers=1).run_stored(store, "t", specs, sweep_id="s")
        _kill_sweep(store, "s", keep=2)
        DRIVER_RUNS.clear()
        healthy = RunSpec.make("_test_res_square", x=-1)  # in no chunk
        resumer = ExperimentRunner(max_workers=2)
        resumer._make_pool = lambda: _FakePool(healthy, set(), [])
        resumed = resumer.resume_stored(store, "s")
        assert DRIVER_RUNS == []
        assert [o.result for o in resumed] == [0, 1, 4]
        assert store.load_outcomes("s")[2].result == 4
        assert store.manifest("s")["status"] == "complete"

    def test_unpicklable_spec_fails_alone_in_the_same_pool(self):
        """A spec that cannot be pickled fails with its pickling error; it
        is no worker crash, and the pool runs the other specs."""
        specs = [RunSpec.make("_test_res_square", x=x) for x in range(4)]
        specs[1] = RunSpec.make("_test_res_square", x=lambda: 1)
        runner = ExperimentRunner(max_workers=2)
        make_pool = runner._make_pool
        pools = []

        def counting_pool():
            pools.append(make_pool())
            return pools[-1]

        runner._make_pool = counting_pool
        outcomes = runner.run(specs)
        assert outcomes[1].error_kind == "scenario-error"
        assert "pickle" in outcomes[1].error.lower()
        assert [outcomes[x].result for x in (0, 2, 3)] == [0, 4, 9]
        assert runner.last_recovery == {"worker_crashes": 0}
        assert len(pools) == 1
