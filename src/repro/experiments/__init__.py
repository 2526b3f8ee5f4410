"""Parallel experiment engine for paper-scale scenario sweeps.

The packages under :mod:`repro` simulate one scenario at a time; every table
of the paper is a *sweep* over a grid of scenarios (client model × attack
scenario × seed).  This package provides:

* :class:`~repro.experiments.runner.ExperimentRunner` — executes a list of
  :class:`~repro.experiments.runner.RunSpec` declarations serially or across
  worker processes (``concurrent.futures.ProcessPoolExecutor``), preserving
  declaration order and per-run wall-clock timings.
* :mod:`repro.experiments.scenarios` — a registry of named, picklable
  scenario functions (workers resolve scenarios by name, so no callables or
  classes ever cross the process boundary).
* :mod:`repro.experiments.store` — a durable, append-only run store
  (:class:`~repro.experiments.store.RunStore`): atomically-committed sweep
  manifests, fsynced JSONL segments, torn-record repair, ``fsck``, and
  the query APIs the sweep reports read.

See ``EXPERIMENTS.md`` at the repository root for the full guide.
"""

from repro.experiments.runner import (
    ERROR_KINDS,
    ExperimentRunner,
    RunOutcome,
    RunSpec,
    SweepCancelled,
    make_grid,
)
from repro.experiments.scenarios import SCENARIOS, get_scenario, scenario
from repro.experiments.store import (
    FsckReport,
    RepairEvent,
    RunStore,
    StoreError,
    SweepWriter,
    repair_segment,
    scan_records,
)
from repro.experiments.warmup import warm_worker_caches

__all__ = [
    "ERROR_KINDS",
    "ExperimentRunner",
    "FsckReport",
    "RepairEvent",
    "RunOutcome",
    "RunSpec",
    "RunStore",
    "SCENARIOS",
    "StoreError",
    "SweepCancelled",
    "SweepWriter",
    "get_scenario",
    "make_grid",
    "repair_segment",
    "scan_records",
    "scenario",
    "warm_worker_caches",
]
