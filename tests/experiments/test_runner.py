"""Tests for the experiment engine: grids, execution, aggregation, persistence."""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentRunner,
    RunSpec,
    get_scenario,
    make_grid,
    outcomes_table,
    scenario,
)

# Register tiny scenarios for these tests.  Registration is module-global,
# so names are prefixed to avoid clashing with real scenarios.


@scenario("_test_square")
def _square(x: int = 2) -> int:
    return x * x


@scenario("_test_boom")
def _boom() -> None:
    raise RuntimeError("intentional failure")


class TestRunSpec:
    def test_make_sorts_params(self):
        spec = RunSpec.make("s", b=2, a=1)
        assert spec.params == (("a", 1), ("b", 2))
        assert spec.kwargs() == {"a": 1, "b": 2}

    def test_label(self):
        assert RunSpec.make("s", a=1).label == "s[a=1]"
        assert RunSpec.make("s").label == "s"

    def test_hashable(self):
        assert len({RunSpec.make("s", a=1), RunSpec.make("s", a=1)}) == 1


class TestGrid:
    def test_cross_product_row_major(self):
        grid = make_grid("s", a=[1, 2], b=["x", "y"])
        assert [spec.kwargs() for spec in grid] == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_empty_axis_yields_no_specs(self):
        assert make_grid("s", a=[]) == []


class TestRegistry:
    def test_get_known(self):
        assert get_scenario("_test_square")(x=3) == 9

    def test_get_unknown_raises_with_listing(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            scenario("_test_square")(lambda: None)


class TestRunnerSerial:
    def test_runs_in_declaration_order(self):
        runner = ExperimentRunner(max_workers=1)
        outcomes = runner.run(make_grid("_test_square", x=[3, 1, 2]))
        assert [outcome.result for outcome in outcomes] == [9, 1, 4]
        assert all(outcome.ok for outcome in outcomes)
        assert runner.last_execution_mode == "serial"

    def test_errors_are_captured_not_raised(self):
        outcomes = ExperimentRunner(max_workers=1).run(
            [RunSpec.make("_test_boom"), RunSpec.make("_test_square", x=5)]
        )
        assert not outcomes[0].ok
        assert "RuntimeError: intentional failure" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].result == 25

    def test_wall_time_recorded(self):
        outcome = ExperimentRunner(max_workers=1).run([RunSpec.make("_test_square")])[0]
        assert outcome.wall_time > 0

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(max_workers=0)


class TestRunnerParallel:
    def test_process_pool_matches_serial(self):
        # Uses a scenario registered in repro.experiments.scenarios (worker
        # processes re-import the registry; test-local scenarios don't exist
        # there).
        specs = [
            RunSpec.make("table3_probabilities", trials=20_000, m_max=3),
            RunSpec.make("table3_probabilities", trials=20_000, m_max=5),
        ]
        serial = ExperimentRunner(max_workers=1).run(specs)
        parallel = ExperimentRunner(max_workers=2).run(specs)
        assert [o.result for o in serial] == [o.result for o in parallel]


class TestChunkedSubmission:
    def test_auto_chunking_covers_grid_in_order(self):
        runner = ExperimentRunner(max_workers=4)
        specs = make_grid("_test_square", x=list(range(33)))
        chunks = runner._chunk(specs)
        # ceil(33 / 16) = 3 per chunk; contiguous, order-preserving cover.
        assert all(len(chunk) <= 3 for chunk in chunks)
        assert [s for chunk in chunks for s in chunk] == specs

    def test_chunked_parallel_matches_serial_in_order(self):
        # Nine specs on two workers chunk in pairs (ceil(9 / 8) = 2).
        specs = make_grid(
            "table3_probabilities", trials=[10_000, 20_000, 30_000], m_max=[2, 3, 4]
        )
        runner = ExperimentRunner(max_workers=2)
        assert [len(chunk) for chunk in runner._chunk(specs)] == [2, 2, 2, 2, 1]
        serial = ExperimentRunner(max_workers=1).run(specs)
        chunked = runner.run(specs)
        assert [o.result for o in serial] == [o.result for o in chunked]
        assert [o.spec for o in chunked] == specs

    def test_execution_mode_reports_chunks(self):
        runner = ExperimentRunner(max_workers=2)
        specs = [
            RunSpec.make("table3_probabilities", trials=10_000, m_max=2),
            RunSpec.make("table3_probabilities", trials=10_000, m_max=3),
        ]
        runner.run(specs)
        assert runner.last_execution_mode in (
            "processes[2] chunks[2]",
            # Pool creation can fail in constrained sandboxes; the runner
            # must degrade to serial rather than fail the sweep.
            "serial (process pool unavailable)",
        )

    def test_warm_worker_caches_is_idempotent(self):
        from repro.experiments.warmup import warm_worker_caches

        warm_worker_caches()
        warm_worker_caches()  # second call must be a cheap no-op


class TestReporting:
    def test_outcomes_table_renders(self):
        outcomes = ExperimentRunner(max_workers=1).run(make_grid("_test_square", x=[2, 3]))
        table = outcomes_table(
            outcomes,
            [("x", lambda o: o.spec.kwargs()["x"]), ("x^2", lambda o: o.result)],
            title="squares",
        )
        assert "squares" in table
        assert "x^2" in table
        assert "9" in table
