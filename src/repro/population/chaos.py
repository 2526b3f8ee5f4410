"""Fleet-scale chaos campaigns: correlated faults, phased regimes, resume.

The paper's attacks succeed or fail with the *network conditions* the
victims experience.  A :class:`ChaosPlan` describes those conditions the
way :class:`~repro.population.spec.PopulationSpec` describes the fleet —
declaratively, frozen, canonically serialisable — in three layers:

* **correlation groups** — a weighted mix of named client clusters
  (AS-like failure domains), assigned by a named RNG stream like every
  other mix, whose links share every outage;
* **phased regimes** — a timeline of named phases, each mapping groups to
  fault regimes; the compiler turns them into per-link
  :class:`~repro.netsim.faults.FaultSchedule` swap sequences (applied and
  retired via :meth:`~repro.netsim.network.Network.swap_link_faults`);
* **a campaign horizon** — total simulated duration plus checkpoint
  cadence.

Plans share the specs' canonical codec
(:class:`~repro.population.spec.Declarative`): ``ChaosPlan.from_json``
is memoised, and ``ChaosPlan.digest`` keys every stored checkpoint.

:func:`compile_chaos` is pure: ``(plan, size, seed)`` maps to per-client
group labels and per-client schedules, and an empty (or all-clean) plan
compiles to **no** schedules at all — the fleet run is then bit-identical
to the same spec without chaos (pinned by
``tests/population/test_chaos_fleet.py``).

Campaigns execute as **prefix re-simulations**: checkpoint ``k`` is one
pure ``population_chaos`` run spec simulating ``[0, t_k]`` from scratch
with every phase swap scheduled up front.  Each checkpoint is therefore
an independent, resumable, bit-reproducible unit, and
:func:`run_chaos_campaign` simply drives the list through
:meth:`~repro.experiments.runner.ExperimentRunner.run_stored` — a SIGINT
or ``kill -9`` mid-phase loses at most the in-flight checkpoint, and
:func:`resume_chaos_campaign` replays only the unfinished tail.  The store
holds the checkpoint outcomes alone; the campaign document both functions
return is computed from them.  The final checkpoint *is* the campaign's
end state; intermediate ones are the degradation timeline
(:func:`repro.measurement.report.degradation_report`).

``python -m repro.population.chaos`` runs the smoke campaign
(``make chaos-campaign``): a small fleet, two phases, one partitioned
group, end-to-end through the run store.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional

from repro.netsim.faults import FaultSchedule
from repro.population.generate import _draw_mix
from repro.population.spec import (
    WINDOWED_FAULT_KINDS,
    Declarative,
    FaultRegimeSpec,
    Mix,
    PopulationSpec,
    SpecError,
    _as_mix,
    regime_table,
)

#: The named generation stream assigning clients to correlation groups
#: (see :func:`repro.population.generate._stream` for the seeding scheme).
GROUP_STREAM = "chaos:group"


class ChaosError(SpecError):
    """A chaos plan is internally inconsistent or unloadable."""


@dataclass(frozen=True)
class ChaosPhase(Declarative):
    """One regime window: for ``duration`` seconds, groups map to regimes.

    ``regimes`` is ``((group, regime), ...)``; groups not listed run clean
    for the phase.  Phase windows tile the campaign timeline back to back
    starting at ``t = 0`` on the simulator clock.
    """

    error = ChaosError

    name: str
    duration: float
    regimes: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ChaosError("chaos phase name must not be empty")
        if self.duration <= 0:
            raise ChaosError(
                f"phase {self.name!r} duration must be > 0, got {self.duration}"
            )
        pairs = tuple(
            (str(group), str(regime)) for group, regime in self.regimes
        )
        seen = set()
        for group, _regime in pairs:
            if group in seen:
                raise ChaosError(
                    f"phase {self.name!r} maps group {group!r} twice"
                )
            seen.add(group)
        object.__setattr__(self, "regimes", pairs)


@dataclass(frozen=True)
class CampaignHorizon(Declarative):
    """How long the campaign simulates and how often it checkpoints.

    ``duration == 0`` means "the sum of the phase durations"; a positive
    value must cover every phase (the tail past the last phase runs
    healed).  ``checkpoint_every == 0`` checkpoints at phase boundaries
    only; a positive cadence adds checkpoints at every multiple.
    """

    error = ChaosError

    duration: float = 0.0
    checkpoint_every: float = 0.0

    def __post_init__(self) -> None:
        if self.duration < 0 or self.checkpoint_every < 0:
            raise ChaosError(
                "horizon duration and checkpoint_every must be >= 0, got "
                f"{self.duration} / {self.checkpoint_every}"
            )


@dataclass(frozen=True)
class ChaosPlan(Declarative):
    """The full declarative description of one chaos campaign.

    Frozen and canonically serialisable (:meth:`to_json`, :meth:`digest`)
    exactly like :class:`~repro.population.spec.PopulationSpec`, so plans
    ride inside run-spec parameters and key caches.  ``groups`` is a
    weighted :data:`~repro.population.spec.Mix` of named failure domains
    (every weight > 0).  ``regimes`` reuses
    :class:`~repro.population.spec.FaultRegimeSpec` — inside a phase the
    windowed kinds interpret ``start`` as an offset into the phase and
    ``duration == 0`` as "the rest of the phase".
    """

    label = "chaos plan"
    error = ChaosError

    groups: Mix = ()
    regimes: tuple[FaultRegimeSpec, ...] = ()
    phases: tuple[ChaosPhase, ...] = ()
    horizon: CampaignHorizon = field(default_factory=CampaignHorizon)

    def __post_init__(self) -> None:
        groups = _as_mix(self.groups, "chaos groups", ChaosError) if self.groups else ()
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "regimes", tuple(self.regimes))
        object.__setattr__(self, "phases", tuple(self.phases))
        for name, weight in self.groups:
            if not name:
                raise ChaosError("correlation group name must not be empty")
            if weight <= 0:
                raise ChaosError(f"group {name!r} weight must be > 0, got {weight}")
        for collection, what in ((self.regimes, "regime"), (self.phases, "phase")):
            names = [entry.name for entry in collection]
            if len(names) != len(set(names)):
                raise ChaosError(f"chaos plan declares a {what} name twice")
        group_names = {name for name, _weight in self.groups}
        regime_names = set(regime_table(self.regimes))
        for phase in self.phases:
            for group, regime in phase.regimes:
                if group not in group_names:
                    raise ChaosError(
                        f"phase {phase.name!r} references undeclared group "
                        f"{group!r}"
                    )
                if regime not in regime_names:
                    raise ChaosError(
                        f"phase {phase.name!r} references undeclared regime "
                        f"{regime!r}"
                    )
        phase_total = sum(phase.duration for phase in self.phases)
        if self.horizon.duration and self.horizon.duration < phase_total:
            raise ChaosError(
                f"horizon duration {self.horizon.duration} is shorter than "
                f"the {phase_total} seconds of declared phases"
            )

    # --------------------------------------------------------------- lookups
    def total_duration(self) -> float:
        """The campaign horizon (0 = no timeline: run the natural length)."""
        return self.horizon.duration or sum(
            phase.duration for phase in self.phases
        )

    def phase_at(self, time: float) -> str:
        """Name of the phase covering ``time`` ("" past the last phase)."""
        cursor = 0.0
        for phase in self.phases:
            if cursor <= time < cursor + phase.duration:
                return phase.name
            cursor += phase.duration
        return ""

    def checkpoints(self) -> tuple[float, ...]:
        """Strictly-increasing checkpoint times ending at the horizon."""
        total = self.total_duration()
        if total <= 0:
            return ()
        times = {total}
        cursor = 0.0
        for phase in self.phases:
            cursor += phase.duration
            if cursor < total:
                times.add(cursor)
        cadence = self.horizon.checkpoint_every
        if cadence > 0:
            tick = cadence
            while tick < total:
                times.add(tick)
                tick += cadence
        return tuple(sorted(times))


# ------------------------------------------------------------------ compiler
@dataclass(frozen=True)
class ChaosCompilation:
    """The pure compile of ``(plan, size, seed)``: labels + schedules.

    ``group_of[i]`` is client ``i``'s correlation group ("" when the plan
    declares no groups); ``schedules`` maps client index to the
    :class:`~repro.netsim.faults.FaultSchedule` of regime swaps its links
    experience — clients whose every phase collapses to "no change" are
    simply absent, so an inert plan compiles to an empty mapping.
    """

    group_of: tuple[str, ...]
    schedules: Mapping[int, FaultSchedule]
    checkpoints: tuple[float, ...]
    total_duration: float

    @property
    def is_inert(self) -> bool:
        return not self.schedules


def assign_groups(plan: ChaosPlan, size: int, seed: int) -> tuple[str, ...]:
    """Deterministic client→group labels via the ``chaos:group`` stream.

    Mirrors fleet generation: its own named stream (group assignment never
    shifts the fleet's draws), and a single-group plan assigns without
    consuming randomness at all.
    """
    if not plan.groups:
        return ("",) * size
    return tuple(_draw_mix(dict(plan.groups), size, seed, GROUP_STREAM))


def _phase_components(
    regime: FaultRegimeSpec, phase_start: float, phase_duration: float
) -> tuple:
    """Realise one regime inside one phase window.

    Windowed kinds re-anchor onto the absolute clock: ``start`` is the
    offset into the phase, ``duration == 0`` means the rest of the phase.
    Probabilistic kinds pass through unchanged (they live until the next
    swap retires them).
    """
    from repro.population.fleet import _fault_components

    if regime.kind in WINDOWED_FAULT_KINDS:
        offset = min(regime.start, phase_duration)
        duration = regime.duration or max(phase_duration - offset, 0.0)
        regime = replace(
            regime, start=phase_start + offset, duration=duration
        )
    return _fault_components(regime)


def _group_schedule(plan: ChaosPlan, group: str) -> Optional[FaultSchedule]:
    """The swap timeline one correlation group experiences (or ``None``).

    Consecutive identical states collapse away, so a group that runs clean
    through every phase gets **no** schedule — nothing is attached, nothing
    is scheduled, and the run stays bit-identical to a chaos-free fleet.
    """
    table = regime_table(plan.regimes)
    entries: list[tuple[float, tuple]] = []
    current: tuple = ()
    cursor = 0.0
    for phase in plan.phases:
        regime_name = dict(phase.regimes).get(group)
        if regime_name is None:
            components: tuple = ()
        else:
            components = _phase_components(
                table[regime_name], cursor, phase.duration
            )
        if components != current:
            entries.append((cursor, components))
            current = components
        cursor += phase.duration
    if current != ():
        # Heal at the end of the last phase (the horizon tail runs clean).
        entries.append((cursor, ()))
    if not entries:
        return None
    return FaultSchedule(entries)


def compile_chaos(plan: ChaosPlan, size: int, seed: int) -> ChaosCompilation:
    """Pure compile: per-client group labels and per-client fault schedules."""
    group_of = assign_groups(plan, size, seed)
    by_group = {name: _group_schedule(plan, name) for name, _weight in plan.groups}
    schedules = {
        index: by_group[label]
        for index, label in enumerate(group_of)
        if label and by_group.get(label) is not None
    }
    return ChaosCompilation(
        group_of=group_of,
        schedules=schedules,
        checkpoints=plan.checkpoints(),
        total_duration=plan.total_duration(),
    )


# ------------------------------------------------------------------ campaign
def run_chaos_checkpoint(
    spec: PopulationSpec,
    plan: ChaosPlan,
    seed: int,
    until: float = 0.0,
) -> dict[str, Any]:
    """One pure prefix re-simulation of the campaign: ``[0, until]``.

    ``until <= 0`` runs the fleet's natural length (bit-identical to a
    chaos-free :func:`~repro.population.fleet.run_fleet` when the plan is
    inert).  The result document carries the fleet payload plus the
    chaos surface: ``groups`` (per-group success + fault counters),
    ``fault_stats``, ``plan_digest``, ``until`` and ``phase``; no
    per-client rows.
    """
    from repro.population.fleet import run_fleet

    compilation = compile_chaos(plan, spec.size, seed)
    document = run_fleet(
        spec,
        seed=seed,
        detail_limit=0,
        run_until=until if until > 0 else None,
        link_schedules=compilation.schedules or None,
        group_of=compilation.group_of if plan.groups else None,
    )
    document["plan_digest"] = plan.digest()
    document["until"] = float(until)
    document["phase"] = plan.phase_at(max(until - 1e-9, 0.0)) if until > 0 else ""
    return document


def campaign_specs(spec: PopulationSpec, plan: ChaosPlan, seed: int) -> list:
    """The campaign's checkpoint run specs, in checkpoint order.

    Checkpoint ``k`` simulates ``[0, t_k]`` from scratch — each spec is an
    independent pure unit, which is exactly what makes the campaign
    resumable at checkpoint granularity through the store.
    """
    from repro.experiments.runner import RunSpec

    spec_json = spec.to_json()
    plan_json = plan.to_json()
    checkpoints = plan.checkpoints() or (0.0,)
    return [
        RunSpec.make(
            "population_chaos",
            spec_json=spec_json,
            plan_json=plan_json,
            seed=seed,
            until=float(time),
            checkpoint=index,
        )
        for index, time in enumerate(checkpoints)
    ]


def _campaign_summary(
    name: str,
    sweep_id: Optional[str],
    spec: PopulationSpec,
    plan: ChaosPlan,
    seed: int,
    outcomes: list,
) -> dict[str, Any]:
    """The campaign document, computed from its checkpoint outcomes."""
    checkpoints = []
    for outcome in outcomes:
        params = outcome.spec.kwargs()
        entry: dict[str, Any] = {
            "checkpoint": params.get("checkpoint"),
            "until": params.get("until"),
        }
        if outcome.ok and isinstance(outcome.result, dict):
            result = outcome.result
            entry["phase"] = result.get("phase")
            entry["successes"] = result.get("successes")
            entry["success_rate"] = result.get("success_rate")
            entry["size"] = result.get("size")
            entry["fault_stats"] = result.get("fault_stats")
            entry["groups"] = result.get("groups")
            entry["aggregate"] = result.get("aggregate")
        else:
            entry["error"] = outcome.error
        checkpoints.append(entry)
    return {
        "kind": "chaos-campaign-summary",
        "name": name,
        "sweep_id": sweep_id,
        "seed": seed,
        "spec_digest": spec.digest(),
        "plan_digest": plan.digest(),
        "plan": plan.to_dict(),
        "checkpoints": checkpoints,
    }


def run_chaos_campaign(
    store: Any,
    name: str,
    spec: PopulationSpec,
    plan: ChaosPlan,
    seed: int = 0,
    runner: Optional[Any] = None,
) -> dict[str, Any]:
    """Drive a full campaign through the durable store, checkpoint by
    checkpoint.

    The sweep manifest freezes the checkpoint spec list before the first
    run; every finished checkpoint lands in an fsynced segment, and the
    sweep is ``complete`` once every checkpoint is recorded.  A crash
    leaves a resumable sweep (:func:`resume_chaos_campaign`).  The
    returned ``chaos-campaign-summary`` document is computed from the
    checkpoint outcomes.
    """
    from repro.experiments.runner import ExperimentRunner

    runner = runner or ExperimentRunner(max_workers=1)
    specs = campaign_specs(spec, plan, seed)
    outcomes = runner.run_stored(
        store,
        name,
        specs,
        seed=seed,
        metadata={
            "kind": "chaos-campaign",
            "spec_digest": spec.digest(),
            "plan_digest": plan.digest(),
            "plan": plan.to_dict(),
            "checkpoints": [s.kwargs()["until"] for s in specs],
        },
    )
    return _campaign_summary(name, runner.last_sweep_id, spec, plan, seed, outcomes)


def resume_chaos_campaign(
    store: Any, sweep_id: str, runner: Optional[Any] = None
) -> dict[str, Any]:
    """Continue a killed campaign from nothing but its store directory.

    Spec and plan are rebuilt from the manifest's frozen run specs, the
    finished checkpoints load back (validated), only the unfinished tail
    re-executes, and the summary is computed from the outcomes — the
    result is identical to an uninterrupted :func:`run_chaos_campaign`.
    """
    from repro.experiments.runner import ExperimentRunner

    runner = runner or ExperimentRunner(max_workers=1)
    specs = store.specs(sweep_id)
    if not specs:
        raise ChaosError(f"sweep {sweep_id!r} has no campaign specs to resume")
    params = specs[0].kwargs()
    spec = PopulationSpec.from_json(params["spec_json"])
    plan = ChaosPlan.from_json(params["plan_json"])
    seed = int(params.get("seed", 0))
    name = store.manifest(sweep_id).get("name", sweep_id)
    outcomes = runner.resume_stored(store, sweep_id, specs)
    return _campaign_summary(name, sweep_id, spec, plan, seed, outcomes)


# ----------------------------------------------------------------- smoke CLI
def smoke_plan() -> ChaosPlan:
    """The miniature campaign ``make chaos-campaign`` drives end-to-end.

    Two AS-like groups; a calm phase, then a storm phase that blackholes
    ``as-east`` while ``as-west`` rides through; a horizon tail past the
    storm so the degradation report shows calm → storm → healed.
    """
    return ChaosPlan(
        groups=(("as-east", 0.5), ("as-west", 0.5)),
        regimes=(FaultRegimeSpec("blackout", kind="partition"),),
        phases=(
            ChaosPhase("calm", 900.0),
            ChaosPhase("storm", 600.0, regimes=(("as-east", "blackout"),)),
        ),
        horizon=CampaignHorizon(duration=1800.0),
    )


def main(argv: Optional[list[str]] = None) -> int:
    """``python -m repro.population.chaos`` — the smoke campaign."""
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.store import RunStore
    from repro.measurement.report import degradation_report
    from repro.population.landscape import smoke_spec

    parser = argparse.ArgumentParser(
        prog="repro.population.chaos",
        description="Run a small chaos campaign end-to-end (smoke test).",
    )
    parser.add_argument("--store", default=".chaos_campaign_store")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--resume", default=None, metavar="SWEEP_ID",
        help="continue a killed campaign instead of starting a new one",
    )
    args = parser.parse_args(argv)

    store = RunStore(args.store)
    runner = ExperimentRunner(max_workers=args.workers)
    if args.resume:
        campaign = resume_chaos_campaign(store, args.resume, runner=runner)
    else:
        campaign = run_chaos_campaign(
            store,
            "chaos-smoke",
            smoke_spec(),
            smoke_plan(),
            seed=args.seed,
            runner=runner,
        )
    print(degradation_report(campaign))
    print(f"\nstored as sweep {campaign['sweep_id']} in {args.store}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = [
    "CampaignHorizon",
    "ChaosCompilation",
    "ChaosError",
    "ChaosPhase",
    "ChaosPlan",
    "GROUP_STREAM",
    "assign_groups",
    "campaign_specs",
    "compile_chaos",
    "resume_chaos_campaign",
    "run_chaos_campaign",
    "run_chaos_checkpoint",
    "smoke_plan",
]
