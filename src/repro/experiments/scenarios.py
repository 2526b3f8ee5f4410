"""Named, picklable scenario functions for the experiment engine.

Worker processes receive only a :class:`~repro.experiments.runner.RunSpec`
(a scenario *name* plus primitive parameters) and resolve the callable here.
Every scenario builds its own simulator from its own seed, so a scenario run
is a pure function of its parameters and reproduces bit-for-bit regardless
of which process executes it.

Shipped here: one Table II cell (the run-time attack against one client
model), Table III's probabilities, and the population scenarios (a fleet,
a landscape cell, a chaos checkpoint).  Table II is a fleet of one: its
cell runs :func:`~repro.population.fleet.run_fleet` over a single-client
spec, so single-victim and population results share one code path.  New
workloads register theirs with the :func:`scenario` decorator.
"""

from __future__ import annotations

from typing import Any, Callable

SCENARIOS: dict[str, Callable[..., Any]] = {}

def scenario(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a scenario function under ``name``."""

    def register(func: Callable[..., Any]) -> Callable[..., Any]:
        if name in SCENARIOS:
            raise ValueError(f"scenario {name!r} already registered")
        SCENARIOS[name] = func
        return func

    return register


def get_scenario(name: str) -> Callable[..., Any]:
    """Resolve a registered scenario, with a helpful error for typos."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS)) or "(none)"
        raise KeyError(f"unknown scenario {name!r}; registered: {known}") from None


# --------------------------------------------------------------------- table2
#: Table II row label -> client registry model.  The paper's "openntpd"
#: row is reproduced with the slow SNTP failover behaviour of
#: systemd-timesyncd.
TABLE2_MODELS = {
    "ntpd": "ntpd",
    "openntpd*": "systemd-timesyncd",
    "chrony": "chrony",
}


@scenario("table2_runtime_attack")
def table2_runtime_attack(
    client: str = "ntpd", attack: str = "P1", seed: int = 5
) -> dict[str, Any]:
    """One cell of Table II: the run-time attack against one client model.

    A fleet of one: the population spec's defaults (pool of 48, 1500 s
    warm-up, 3 h attack budget) are the paper's lab setup, so the cell is
    :func:`~repro.population.fleet.run_fleet` over a single-client spec,
    read back from the fleet document and its one client row.
    """
    from repro.population.fleet import run_fleet
    from repro.population.spec import PopulationSpec

    if client not in TABLE2_MODELS:
        raise ValueError(f"unknown client model {client!r}")
    spec = PopulationSpec(client_mix={TABLE2_MODELS[client]: 1.0}, attack=attack)
    document = run_fleet(spec, seed)
    (row,) = document["clients"]
    return {
        "label": client,
        "scenario": document["scenario"],
        "seed": seed,
        "success": row["success"],
        "minutes": row["minutes"],
        "shift": row["shift"],
        "events_processed": document["events_processed"],
        "packets_transmitted": document["packets_transmitted"],
    }


# --------------------------------------------------------------------- table3
@scenario("table3_probabilities")
def table3_probabilities(
    m_min: int = 1,
    m_max: int = 9,
    p_rate: float | None = None,
    trials: int = 200_000,
    mc_seed: int = 0,
) -> dict[str, Any]:
    """All rows of Table III plus the shared-matrix Monte-Carlo cross-check.

    The Monte-Carlo column draws a single ``(trials, m_max)`` matrix and
    reuses it across every row (see
    :func:`repro.core.probability.monte_carlo_table3`), so the whole table
    costs one RNG pass.
    """
    import numpy as np

    from repro.core.probability import PAPER_P_RATE, monte_carlo_table3, table3_rows

    p = PAPER_P_RATE if p_rate is None else p_rate
    m_values = range(m_min, m_max + 1)
    rows = table3_rows(m_values=m_values, p_rate=p)
    monte_carlo = monte_carlo_table3(
        m_values=m_values,
        p_rate=p,
        trials=trials,
        rng=np.random.default_rng(mc_seed),
    )
    return {
        "p_rate": p,
        "trials": trials,
        "rows": [
            {
                "m": row.m,
                "n": row.n,
                "p1": row.p1,
                "p2": row.p2,
                "mc_p1": monte_carlo[row.m][0],
                "mc_p2": monte_carlo[row.m][1],
            }
            for row in rows
        ],
    }


# ----------------------------------------------------------------- population
@scenario("population_fleet")
def population_fleet(spec_json: str, seed: int = 0) -> dict[str, Any]:
    """One heterogeneous client fleet through the run-time attack.

    ``spec_json`` is the canonical serialisation of a
    :class:`~repro.population.spec.PopulationSpec`; the fleet is
    generated, simulated on one shared network/heap, and folded into a
    constant-memory streaming aggregate (see :mod:`repro.population.fleet`).
    """
    from repro.population.fleet import run_fleet
    from repro.population.spec import PopulationSpec

    return run_fleet(PopulationSpec.from_json(spec_json), seed=seed)


@scenario("population_landscape")
def population_landscape(
    spec_json: str,
    axis_x: str = "share:ntpd",
    x: float = 0.5,
    axis_y: str = "pool_rate_limit_fraction",
    y: float = 1.0,
    seed: int = 0,
) -> dict[str, Any]:
    """One cell of a population landscape: base spec + two axis overrides.

    The landscape sweep (:func:`repro.population.landscape.sweep_landscape`)
    fans a grid of these through ``run_stored``; keeping the axis values as
    first-class run-spec parameters (instead of burying them in per-cell
    JSON) makes the grid legible in store manifests and reports.  Cells
    carry no per-client rows.
    """
    from repro.population.fleet import run_fleet
    from repro.population.landscape import apply_axis
    from repro.population.spec import PopulationSpec

    spec = PopulationSpec.from_json(spec_json)
    spec = apply_axis(apply_axis(spec, axis_x, x), axis_y, y)
    result = run_fleet(spec, seed=seed, detail_limit=0)
    result["axis_x"] = axis_x
    result["x"] = x
    result["axis_y"] = axis_y
    result["y"] = y
    return result


@scenario("population_chaos")
def population_chaos(
    spec_json: str,
    plan_json: str,
    seed: int = 0,
    until: float = 0.0,
    checkpoint: int = 0,
) -> dict[str, Any]:
    """One chaos-campaign checkpoint: the fleet simulated over ``[0, until]``.

    ``plan_json`` is the canonical serialisation of a
    :class:`~repro.population.chaos.ChaosPlan`; the plan compiles purely
    into per-client fault schedules before the fleet runs, so the result
    is a pure function of the parameters — which is what lets
    ``run_chaos_campaign`` resume a killed campaign bit-identically.
    ``checkpoint`` is the ordinal within the campaign (carried through to
    the stored record; the simulation ignores it).
    """
    from repro.population.chaos import ChaosPlan, run_chaos_checkpoint
    from repro.population.spec import PopulationSpec

    result = run_chaos_checkpoint(
        PopulationSpec.from_json(spec_json),
        ChaosPlan.from_json(plan_json),
        seed=seed,
        until=until,
    )
    result["checkpoint"] = checkpoint
    return result
