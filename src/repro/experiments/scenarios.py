"""Named, picklable scenario functions for the experiment engine.

Worker processes receive only a :class:`~repro.experiments.runner.RunSpec`
(a scenario *name* plus primitive parameters) and resolve the callable here.
Every scenario builds its own simulator from its own seed, so a scenario run
is a pure function of its parameters and reproduces bit-for-bit regardless
of which process executes it.

The two scenarios shipped here are the ones the ported benchmarks need
(Table II run-time attack durations and Table III vulnerability
probabilities); measurement studies and new workloads register theirs with
the :func:`scenario` decorator.
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
@scenario("table2_runtime_attack")
def table2_runtime_attack(
    client: str = "ntpd",
    attack: str = "P1",
    seed: int = 5,
    pool_size: int = 48,
    warmup_seconds: float = 1500.0,
    max_duration_hours: float = 3.0,
) -> dict[str, Any]:
    """One cell of Table II: run-time attack against one client model.

    Mirrors the original ``bench_table2_runtime_attack.run_scenario`` step
    for step (same construction order, same seed handling) so that a fixed
    seed yields results bit-identical to the pre-engine benchmark.
    """
    from repro.core.run_time import RunTimeAttack, RunTimeScenario
    from repro.ntp.clients import ChronyClient, NtpdClient, SystemdTimesyncdClient
    from repro.testbed import TestbedConfig, build_testbed

    client_models = {
        "ntpd": NtpdClient,
        # The paper's "openntpd" row is reproduced with the slow SNTP
        # failover behaviour of systemd-timesyncd (see DESIGN.md).
        "openntpd*": SystemdTimesyncdClient,
        "chrony": ChronyClient,
    }
    if client not in client_models:
        raise ValueError(f"unknown client model {client!r}")
    scenario_enum = {
        "P1": RunTimeScenario.P1_KNOWN_SERVERS,
        "P2": RunTimeScenario.P2_REFID_DISCOVERY,
    }[attack]

    testbed = build_testbed(TestbedConfig(pool_size=pool_size, seed=seed))
    victim = testbed.add_client(client_models[client])
    victim.start()
    testbed.run_for(warmup_seconds)
    run_time_attack = RunTimeAttack(
        testbed.attacker,
        testbed.simulator,
        testbed.resolver,
        victim,
        scenario=scenario_enum,
        known_server_list=testbed.pool.addresses,
        max_duration=3600.0 * max_duration_hours,
    )
    result = run_time_attack.run()
    return {
        "label": client,
        "scenario": scenario_enum.value,
        "seed": seed,
        "success": result.success,
        "minutes": result.attack_duration_minutes,
        "shift": result.clock_shift_achieved,
        "events_processed": testbed.simulator.events_processed,
        "packets_transmitted": testbed.network.packets_transmitted,
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
def population_fleet(
    spec_json: str = "", seed: int = 0, detail_limit: int = 32
) -> dict[str, Any]:
    """One heterogeneous client fleet through the run-time attack.

    ``spec_json`` is the canonical serialisation of a
    :class:`~repro.population.spec.PopulationSpec` (empty = the default
    single-``ntpd``-equivalent spec); the fleet is generated, simulated on
    one shared network/heap, and folded into a constant-memory streaming
    aggregate (see :mod:`repro.population.fleet`).
    """
    from repro.population.fleet import run_fleet, spec_from_json
    from repro.population.spec import PopulationSpec

    spec = spec_from_json(spec_json) if spec_json else PopulationSpec()
    return run_fleet(spec, seed=seed, detail_limit=detail_limit)


@scenario("population_landscape")
def population_landscape(
    spec_json: str = "",
    axis_x: str = "share:ntpd",
    x: float = 0.5,
    axis_y: str = "pool_rate_limit_fraction",
    y: float = 1.0,
    seed: int = 0,
    detail_limit: int = 0,
) -> dict[str, Any]:
    """One cell of a population landscape: base spec + two axis overrides.

    The landscape sweep (:func:`repro.population.landscape.sweep_landscape`)
    fans a grid of these through ``run_stored``; keeping the axis values as
    first-class run-spec parameters (instead of burying them in per-cell
    JSON) makes the grid legible in store manifests and reports.
    """
    from repro.population.fleet import run_fleet, spec_from_json
    from repro.population.landscape import apply_axis
    from repro.population.spec import PopulationSpec

    base = spec_from_json(spec_json) if spec_json else PopulationSpec()
    spec = apply_axis(apply_axis(base, axis_x, x), axis_y, y)
    result = run_fleet(spec, seed=seed, detail_limit=detail_limit)
    result["axis_x"] = axis_x
    result["x"] = x
    result["axis_y"] = axis_y
    result["y"] = y
    return result


@scenario("population_chaos")
def population_chaos(
    spec_json: str = "",
    plan_json: str = "",
    seed: int = 0,
    until: float = 0.0,
    checkpoint: int = 0,
    detail_limit: int = 0,
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
    from repro.population.chaos import ChaosPlan, plan_from_json, run_chaos_checkpoint
    from repro.population.fleet import spec_from_json
    from repro.population.spec import PopulationSpec

    spec = spec_from_json(spec_json) if spec_json else PopulationSpec()
    plan = plan_from_json(plan_json) if plan_json else ChaosPlan()
    result = run_chaos_checkpoint(
        spec, plan, seed=seed, until=until, detail_limit=detail_limit
    )
    result["checkpoint"] = checkpoint
    return result
