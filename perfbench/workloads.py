"""The benchmark's four workloads: what one pass regenerates, and how to
tell that it regenerated it correctly.

Every pass goes through the program's public entry points with an
``ExperimentRunner(max_workers=1)``, which runs serially in-process and
opens no worker pool.  Load is closed-loop: a pass regenerates its
artefact once, start to finish, and the next pass starts only after it.
A pass gets a fresh scratch directory; the workloads that use a run store
put it there, so no pass sees store state from an earlier one.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.experiments import ExperimentRunner, RunSpec, RunStore
from repro.measurement.report import degradation_report, landscape_report
from repro.population.chaos import (
    campaign_specs,
    compile_chaos,
    run_chaos_campaign,
    smoke_plan,
)
from repro.population.generate import generate_fleet
from repro.population.landscape import (
    apply_axis,
    landscape_specs,
    smoke_spec,
    sweep_landscape,
)
from repro.population.spec import PopulationSpec
from repro.testbed import TestbedConfig, build_testbed

TABLE2_CLIENTS = ("ntpd", "chrony", "openntpd*")
TABLE2_ATTACKS = ("P1", "P2")
#: Defaults of the ``table2_runtime_attack`` scenario the workload relies on.
TABLE2_POOL_SIZE = 48
TABLE2_WARMUP_S = 1500.0
TABLE2_ATTACK_H = 3.0
#: ``RunTimeAttack`` runs its attack window plus two progress checks.
ATTACK_TAIL_S = 2 * 30.0

LANDSCAPE_X = ("share:ntpd", (0.2, 0.5, 0.8))
LANDSCAPE_Y = ("pool_rate_limit_fraction", (0.0, 0.5, 1.0))


def fleet_spec() -> PopulationSpec:
    """The 64-client heterogeneous fleet (paper-share client mix)."""
    return PopulationSpec(
        size=64,
        poll_jitter=0.05,
        pool_size=16,
        warmup_seconds=300.0,
        max_duration_hours=0.35,
    )


def fleet_timeline_s(spec: PopulationSpec) -> float:
    """Simulated seconds one fleet client lives through (warmup + attack)."""
    return spec.warmup_seconds + 3600.0 * spec.max_duration_hours + ATTACK_TAIL_S


def digest(document: Any) -> str:
    """Content hash of a JSON document (key order and float repr fixed)."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def stored_artefact(document: dict, report: str) -> dict:
    """The deterministic part of a stored sweep's artefact."""
    return {
        "document": {key: value for key, value in document.items() if key != "sweep_id"},
        "report": report,
    }


@dataclass
class PassResult:
    """What one pass produced.

    Store-backed passes leave their cell outcomes in ``store``; the
    harness reads them back after the clock has stopped.
    """

    outcomes: Optional[list] = None
    #: The landscape grid or campaign summary without its sweep id, plus
    #: the report rendered from it.
    artefact: Optional[dict] = None
    store: Optional[RunStore] = None
    sweep_id: Optional[str] = None

    def cell_outcomes(self, specs: list) -> list:
        """One outcome per spec, ``None`` where the store holds none."""
        if self.outcomes is not None:
            return list(self.outcomes)
        done = self.store.load_outcomes(self.sweep_id, specs)
        return [done.get(index) for index in range(len(specs))]

    def store_records(self) -> int:
        """Records the pass wrote to its store (0 for store-less passes)."""
        if self.store is None:
            return 0
        return sum(len(self.store.records(sweep)) for sweep in self.store.sweeps())


@dataclass(frozen=True)
class Workload:
    """One named workload: what a pass runs and what it must deliver."""

    name: str
    default_seed: int
    #: ``specs(seed)`` -> the run specs one pass executes.
    specs: Callable[[int], list]
    #: ``run(seed, workdir)`` -> :class:`PassResult`.
    run: Callable[[int, str], PassResult]
    #: ``first_testbed(seed)`` builds what the first cell builds first.
    first_testbed: Callable[[int], Any]
    #: Simulated client-seconds one pass delivers (prefix re-runs excluded).
    client_seconds: float
    #: Extracts the deterministic part of one cell result.
    cell_view: Callable[[dict], dict] = lambda result: result


# --------------------------------------------------------------------- table2
def table2_specs(seed: int) -> list:
    return [
        RunSpec.make("table2_runtime_attack", client=client, attack=attack, seed=seed)
        for client in TABLE2_CLIENTS
        for attack in TABLE2_ATTACKS
    ]


def run_table2(seed: int, workdir: str) -> PassResult:
    return PassResult(ExperimentRunner(max_workers=1).run(table2_specs(seed)))


def table2_testbed(seed: int) -> Any:
    return build_testbed(TestbedConfig(pool_size=TABLE2_POOL_SIZE, seed=seed))


def table2_view(result: dict) -> dict:
    keys = ("success", "minutes", "shift", "events_processed", "packets_transmitted")
    return {key: result[key] for key in keys}


# ---------------------------------------------------------------------- fleet
def fleet_specs(seed: int) -> list:
    return [RunSpec.make("population_fleet", spec_json=fleet_spec().to_json(), seed=seed)]


def run_fleet_pass(seed: int, workdir: str) -> PassResult:
    return PassResult(ExperimentRunner(max_workers=1).run(fleet_specs(seed)))


def fleet_testbed(seed: int) -> Any:
    spec = fleet_spec()
    generate_fleet(spec, seed)
    return build_testbed(TestbedConfig(seed=seed, pool_size=spec.pool_size))


# ------------------------------------------------------------------ landscape
def landscape_grid_specs(seed: int) -> list:
    (axis_x, xs), (axis_y, ys) = LANDSCAPE_X, LANDSCAPE_Y
    return landscape_specs(smoke_spec(), axis_x, xs, axis_y, ys, seed=seed)


def run_landscape(seed: int, workdir: str) -> PassResult:
    (axis_x, xs), (axis_y, ys) = LANDSCAPE_X, LANDSCAPE_Y
    store = RunStore(os.path.join(workdir, "store"))
    grid = sweep_landscape(
        store,
        "bench-landscape",
        smoke_spec(),
        axis_x,
        xs,
        axis_y,
        ys,
        seed=seed,
        runner=ExperimentRunner(max_workers=1),
    )
    report = landscape_report(grid)
    return PassResult(None, stored_artefact(grid, report), store, grid["sweep_id"])


def landscape_testbed(seed: int) -> Any:
    (axis_x, xs), (axis_y, ys) = LANDSCAPE_X, LANDSCAPE_Y
    spec = apply_axis(apply_axis(smoke_spec(), axis_x, xs[0]), axis_y, ys[0])
    generate_fleet(spec, seed)
    return build_testbed(
        TestbedConfig(
            seed=seed,
            pool_size=spec.pool_size,
            pool_rate_limit_fraction=spec.pool_rate_limit_fraction,
        )
    )


# ---------------------------------------------------------------------- chaos
def chaos_specs(seed: int) -> list:
    return campaign_specs(smoke_spec(), smoke_plan(), seed)


def run_chaos(seed: int, workdir: str) -> PassResult:
    store = RunStore(os.path.join(workdir, "store"))
    campaign = run_chaos_campaign(
        store,
        "bench-chaos",
        smoke_spec(),
        smoke_plan(),
        seed=seed,
        runner=ExperimentRunner(max_workers=1),
    )
    report = degradation_report(campaign)
    return PassResult(None, stored_artefact(campaign, report), store, campaign["sweep_id"])


def chaos_testbed(seed: int) -> Any:
    spec = smoke_spec()
    compile_chaos(smoke_plan(), spec.size, seed)
    generate_fleet(spec, seed)
    return build_testbed(TestbedConfig(seed=seed, pool_size=spec.pool_size))


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="table2",
            default_seed=5,
            specs=table2_specs,
            run=run_table2,
            first_testbed=table2_testbed,
            client_seconds=len(TABLE2_CLIENTS)
            * len(TABLE2_ATTACKS)
            * (TABLE2_WARMUP_S + 3600.0 * TABLE2_ATTACK_H + ATTACK_TAIL_S),
            cell_view=table2_view,
        ),
        Workload(
            name="fleet",
            default_seed=7,
            specs=fleet_specs,
            run=run_fleet_pass,
            first_testbed=fleet_testbed,
            client_seconds=fleet_spec().size * fleet_timeline_s(fleet_spec()),
        ),
        Workload(
            name="landscape",
            default_seed=0,
            specs=landscape_grid_specs,
            run=run_landscape,
            first_testbed=landscape_testbed,
            client_seconds=len(LANDSCAPE_X[1])
            * len(LANDSCAPE_Y[1])
            * smoke_spec().size
            * fleet_timeline_s(smoke_spec()),
        ),
        Workload(
            name="chaos",
            default_seed=0,
            specs=chaos_specs,
            run=run_chaos,
            first_testbed=chaos_testbed,
            client_seconds=smoke_spec().size * smoke_plan().total_duration(),
        ),
    )
}
