"""Landscape sweeps: attack success as a function of population mix.

The paper's Table II/III report single cells — one client model, one
posture.  A *landscape* sweeps a base :class:`~repro.population.spec.
PopulationSpec` over two axes (say, the ntpd market share × the pool's
rate-limit posture) and runs one fleet per grid cell through the durable
experiment engine (:meth:`~repro.experiments.runner.ExperimentRunner.
run_stored`), each cell's outcome record carrying its streaming
aggregate, and returns a ≥3×3 success-probability grid, computed from
those outcomes, that :func:`repro.measurement.report.landscape_report`
renders.

Axes are named declaratively:

* ``share:<client>`` — set that client type's share to the axis value and
  renormalise the remaining types proportionally;
* any scalar spec field (``pool_rate_limit_fraction``, ``poll_jitter``,
  ``size``, ``pool_size``, ``warmup_seconds``, ``max_duration_hours``).

``python -m repro.population.landscape`` runs the small smoke landscape
(``make population-smoke``): a 3×3 grid of miniature fleets, end-to-end
through ``run_stored``, printed as a report.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import Any, Optional, Sequence

from repro.population.spec import PopulationSpec, SpecError

#: Scalar spec fields addressable as landscape axes.
SCALAR_AXES = (
    "pool_rate_limit_fraction",
    "poll_jitter",
    "size",
    "pool_size",
    "warmup_seconds",
    "max_duration_hours",
)


def apply_axis(spec: PopulationSpec, axis: str, value: float) -> PopulationSpec:
    """Return ``spec`` with one axis set to ``value`` (pure)."""
    if axis.startswith("share:"):
        target = axis.split(":", 1)[1]
        mix = dict(spec.client_mix)
        if target not in mix:
            raise SpecError(
                f"axis {axis!r}: {target!r} is not in the spec's client_mix"
            )
        if not 0.0 <= value <= 1.0:
            raise SpecError(f"axis {axis!r}: share must be in [0, 1], got {value}")
        others = {name: weight for name, weight in mix.items() if name != target}
        others_total = sum(others.values())
        scaled = {}
        for name, weight in mix.items():
            if name == target:
                scaled[name] = value
            elif others_total > 0:
                scaled[name] = weight / others_total * (1.0 - value)
            else:
                scaled[name] = 0.0
        if value >= 1.0 or others_total == 0:
            # A full share collapses the mix to the target type alone.
            scaled = {target: 1.0}
        return replace(spec, client_mix=tuple(scaled.items()))
    if axis in SCALAR_AXES:
        cast = int if axis in ("size", "pool_size") else float
        return replace(spec, **{axis: cast(value)})
    raise SpecError(
        f"unknown landscape axis {axis!r}; expected 'share:<client>' or one "
        f"of {SCALAR_AXES}"
    )


def landscape_specs(
    base: PopulationSpec,
    axis_x: str,
    x_values: Sequence[float],
    axis_y: str,
    y_values: Sequence[float],
    seed: int = 0,
) -> list:
    """Row-major grid of ``population_landscape`` run specs (y outer, x inner)."""
    from repro.experiments.runner import RunSpec

    base_json = base.to_json()
    return [
        RunSpec.make(
            "population_landscape",
            spec_json=base_json,
            axis_x=axis_x,
            x=float(x),
            axis_y=axis_y,
            y=float(y),
            seed=seed,
        )
        for y in y_values
        for x in x_values
    ]


def sweep_landscape(
    store: Any,
    name: str,
    base: PopulationSpec,
    axis_x: str,
    x_values: Sequence[float],
    axis_y: str,
    y_values: Sequence[float],
    seed: int = 0,
    runner: Optional[Any] = None,
) -> dict[str, Any]:
    """Run the full grid through ``run_stored`` and return the grid document.

    The grid is computed from the cells' outcomes and the axes; the sweep
    stores the outcome records alone (each result holds its cell's
    ``aggregate``), so it is ``complete`` once every cell is recorded.
    """
    from repro.experiments.runner import ExperimentRunner

    runner = runner or ExperimentRunner(max_workers=1)
    specs = landscape_specs(base, axis_x, x_values, axis_y, y_values, seed=seed)
    outcomes = runner.run_stored(
        store,
        name,
        specs,
        seed=seed,
        metadata={
            "kind": "population-landscape",
            "axis_x": axis_x,
            "x_values": [float(x) for x in x_values],
            "axis_y": axis_y,
            "y_values": [float(y) for y in y_values],
        },
    )

    cells = []
    for outcome in outcomes:
        params = outcome.spec.kwargs()
        cell: dict[str, Any] = {
            "x": params["x"],
            "y": params["y"],
            "axis_x": axis_x,
            "axis_y": axis_y,
        }
        if outcome.ok and isinstance(outcome.result, dict):
            for key in ("success_rate", "successes", "size", "fault_stats"):
                cell[key] = outcome.result.get(key)
        else:
            cell["error"] = outcome.error
        cells.append(cell)

    return {
        "kind": "landscape-grid",
        "name": name,
        "sweep_id": runner.last_sweep_id,
        "axis_x": {"name": axis_x, "values": [float(x) for x in x_values]},
        "axis_y": {"name": axis_y, "values": [float(y) for y in y_values]},
        "cells": cells,
    }


def smoke_spec() -> PopulationSpec:
    """The miniature heterogeneous spec the smoke landscape sweeps."""
    return PopulationSpec(
        size=8,
        client_mix=(("ntpd", 0.5), ("chrony", 0.3), ("systemd-timesyncd", 0.2)),
        poll_jitter=0.1,
        pool_size=16,
        warmup_seconds=300.0,
        # Long enough for the fast models to actually succeed (~16 min for
        # ntpd), so the smoke grid shows a real probability gradient.
        max_duration_hours=0.35,
    )


def main(argv: Optional[list[str]] = None) -> int:
    """``python -m repro.population.landscape`` — the smoke landscape."""
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.store import RunStore
    from repro.measurement.report import landscape_report

    parser = argparse.ArgumentParser(
        prog="repro.population.landscape",
        description="Run a small population landscape end-to-end (smoke test).",
    )
    parser.add_argument("--store", default=".population_smoke_store")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    store = RunStore(args.store)
    runner = ExperimentRunner(max_workers=args.workers)
    grid = sweep_landscape(
        store,
        "population-smoke",
        smoke_spec(),
        "share:ntpd",
        (0.2, 0.5, 0.8),
        "pool_rate_limit_fraction",
        (0.0, 0.5, 1.0),
        seed=args.seed,
        runner=runner,
    )
    print(landscape_report(grid))
    print(f"\nstored as sweep {grid['sweep_id']} in {args.store}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = [
    "SCALAR_AXES",
    "apply_axis",
    "landscape_specs",
    "smoke_spec",
    "sweep_landscape",
]
