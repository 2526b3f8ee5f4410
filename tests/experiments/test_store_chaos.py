"""Crash-injection harness: kill -9 mid-sweep, then fsck + resume.

The acceptance property for the durable store: a sweep driver killed with
``SIGKILL`` mid-write leaves a store that passes ``fsck``, and
``resume_stored()`` replays to results bit-identical to an uninterrupted
run.  A worker killed with ``SIGKILL`` mid-sweep fails only the chunk that
killed it: the chunks in flight with it re-run one at a time through the
respawned pool and complete.

Runs under ``make chaos`` (and the full tier-1 suite).  Worker-killing
tests rely on the ``fork`` start method, like the rest of the resilience
suite.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments import ExperimentRunner, RunSpec, RunStore, scenario

pytestmark = pytest.mark.chaos

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

#: Deterministic pure scenario shared by the killed child process and the
#: resuming parent — results must match bit-for-bit across both.
_SLOW_SCENARIO = '''
import time
from repro.experiments.scenarios import scenario

@scenario("_chaos_store_slow")
def _chaos_store_slow(x: int = 0) -> dict:
    time.sleep(0.05)
    return {"x": x, "sq": x * x, "digest": (x * 2654435761) % 2**32}
'''


@scenario("_chaos_store_slow")
def _chaos_store_slow(x: int = 0) -> dict:
    time.sleep(0.05)
    return {"x": x, "sq": x * x, "digest": (x * 2654435761) % 2**32}


@scenario("_chaos_kill9_worker")
def _chaos_kill9_worker(marker: str = "") -> None:
    if marker:
        open(marker, "w").close()
    os.kill(os.getpid(), signal.SIGKILL)


@scenario("_chaos_sleep")
def _chaos_sleep(seconds: float = 0.6, x: int = 0, after: str = "") -> int:
    # ``after`` holds the sleep back until the crasher has run, so a slow
    # worker start cannot let sleeps finish (and the crasher fly alone)
    # before the crash happens.
    deadline = time.monotonic() + 30.0
    while after and not os.path.exists(after) and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(seconds)
    return x


def _specs(n: int = 30) -> list[RunSpec]:
    return [RunSpec.make("_chaos_store_slow", x=i) for i in range(n)]


def _outcome_key(outcome) -> tuple:
    return (outcome.spec, outcome.result, outcome.error, outcome.error_kind)


def _count_records(store: RunStore, sweep_id: str) -> int:
    try:
        return len(store.records(sweep_id))
    except Exception:
        return 0


class TestDriverSigkill:
    """kill -9 the sweep driver mid-write; fsck passes, resume is identical."""

    @pytest.mark.parametrize("kill_after", [1, 5])
    def test_sigkilled_sweep_fscks_and_resumes_bit_identical(
        self, tmp_path, kill_after
    ):
        root = str(tmp_path / "store")
        child_source = _SLOW_SCENARIO + (
            """
import sys
from repro.experiments import ExperimentRunner, RunSpec, RunStore

root = sys.argv[1]
specs = [RunSpec.make("_chaos_store_slow", x=i) for i in range(30)]
runner = ExperimentRunner(max_workers=1)
runner.run_stored(RunStore(root), "chaos", specs, sweep_id="kill")
"""
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", child_source, root],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            store = RunStore(root)
            deadline = time.monotonic() + 30.0
            while _count_records(store, "kill") < kill_after:
                if child.poll() is not None:
                    pytest.fail("sweep finished before the kill landed")
                if time.monotonic() > deadline:
                    pytest.fail("sweep never produced records to kill over")
                time.sleep(0.01)
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)

        # Simulate the torn in-flight line the kill can leave behind.
        segment = store._segment_paths("kill")[-1]
        with open(segment, "ab") as handle:
            handle.write(b'{"index": 99, "spec": {"scenario": "_chaos')

        report = store.fsck()
        assert report.ok, report.errors
        assert store.manifest("kill")["status"] == "running"
        recorded = _count_records(store, "kill")
        assert kill_after <= recorded < 30

        runner = ExperimentRunner(max_workers=1)
        resumed = runner.resume_stored(store, "kill")

        uninterrupted = ExperimentRunner(max_workers=1).run_stored(
            RunStore(str(tmp_path / "reference")), "chaos", _specs(), sweep_id="kill"
        )
        assert [_outcome_key(o) for o in resumed] == [
            _outcome_key(o) for o in uninterrupted
        ]
        assert store.manifest("kill")["status"] == "complete"
        assert store.fsck().ok
        # repair mode clears the torn line; the store then loads clean
        store.fsck(repair=True)
        assert store.fsck().repaired == []


class TestWorkerSigkill:
    """kill -9 a worker mid-sweep; only the killer fails."""

    def test_worker_kill_is_attributed_and_innocents_complete(self, tmp_path):
        marker = str(tmp_path / "crashed")
        specs = [RunSpec.make("_chaos_kill9_worker", marker=marker)] + [
            RunSpec.make("_chaos_sleep", seconds=0.6, x=i, after=marker)
            for i in range(8)
        ]
        runner = ExperimentRunner(max_workers=4)
        outcomes = runner.run(specs)

        assert outcomes[0].error_kind == "worker-crash"
        assert all(o.ok for o in outcomes[1:])
        assert [o.result for o in outcomes[1:]] == list(range(8))
        assert runner.last_recovery["worker_crashes"] >= 1

    def test_worker_kill_in_stored_sweep_is_durable(self, tmp_path):
        store = RunStore(str(tmp_path))
        specs = [RunSpec.make("_chaos_kill9_worker")] + [
            RunSpec.make("_chaos_sleep", seconds=0.05, x=i) for i in range(4)
        ]
        runner = ExperimentRunner(max_workers=2)
        outcomes = runner.run_stored(store, "chaos", specs, sweep_id="w")
        assert outcomes[0].error_kind == "worker-crash"
        assert store.fsck().ok
        done = store.load_outcomes("w")
        assert done[0].error_kind == "worker-crash"
        assert sorted(done) == [0, 1, 2, 3, 4]
