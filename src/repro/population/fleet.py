"""Multi-client fleet simulation: one network, one heap, many victims.

:func:`run_fleet` realises a :class:`~repro.population.spec.PopulationSpec`
into a concrete fleet (via :func:`~repro.population.generate.generate_fleet`)
and runs the paper's run-time attack against **every** client concurrently
on a single :class:`~repro.netsim.simulator.Simulator` — thousands of
clients sharing one pool, one resolver and one event heap.  Results fold
into a constant-memory :class:`~repro.population.aggregate.
StreamingAggregate` instead of per-client payload lists (per-client detail
rows are attached only for small fleets).

Table II is a fleet of one: the ``table2_runtime_attack`` scenario runs
a single-client spec through :func:`run_fleet`, so the single-victim
golden results (pinned by ``tests/integration/test_determinism.py`` and
``tests/population/test_fleet_golden.py``) and every fleet share this
one function.  ``RunTimeAttack.run`` stays the direct reference path the
determinism suite compares it against, cell for cell.

Clients attach through :meth:`repro.testbed.LabTestbed.add_client`
(``victim-<n>`` at ``VICTIM_BASE_IP + n``); the fleet then sets each
client's access link on its upstream links and attaches one
:class:`~repro.netsim.faults.FaultSchedule` to them: the client's static
fault regime from t=0, composed into every entry of its chaos schedule.
Run specs carry the spec as canonical JSON;
:meth:`~repro.population.spec.Declarative.from_json` memoises the parse.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Mapping, Optional, Sequence

from repro.core.run_time import RunTimeAttack, RunTimeScenario
from repro.netsim.faults import (
    Corruption,
    Duplication,
    FaultSchedule,
    FaultStats,
    GilbertElliott,
    LatencySpike,
    Partition,
    ReorderJitter,
)
from repro.netsim.network import Link
from repro.ntp.clients import CLIENT_REGISTRY
from repro.population.aggregate import StreamingAggregate
from repro.population.generate import ClientManifest, generate_fleet
from repro.population.spec import FaultRegimeSpec, PopulationSpec, regime_table
from repro.testbed import RESOLVER_IP, LabTestbed, TestbedConfig, build_testbed


def _fault_components(regime: FaultRegimeSpec) -> tuple:
    """Map one regime spec onto netsim fault components (inert ones drop).

    The windowed kinds (``partition``, ``latency_spike``) carry their own
    schedule and ignore ``probability``; the probabilistic kinds are inert
    at ``probability == 0``.  Returning ``()`` keeps the link untouched —
    the compiled fault-free fast paths, bit-identical.
    """
    kind = regime.kind
    if kind == "clean":
        return ()
    if kind == "partition":
        components: tuple = (Partition(regime.start, regime.duration),)
    elif kind == "latency_spike":
        components = (
            LatencySpike(
                regime.start, regime.duration, extra=regime.magnitude or 0.25
            ),
        )
    elif regime.probability == 0.0:
        return ()
    elif kind == "bursty_loss":
        components = (
            GilbertElliott(
                p_enter_bad=regime.probability,
                p_exit_bad=0.25,
                loss_bad=regime.magnitude or 0.8,
            ),
        )
    elif kind == "jitter":
        components = (
            ReorderJitter(regime.probability, max_delay=regime.magnitude or 0.2),
        )
    elif kind == "corruption":
        components = (Corruption(regime.probability),)
    else:
        components = (Duplication(regime.probability),)
    return tuple(c for c in components if c.active)


def _attach_client(
    testbed: LabTestbed,
    spec: PopulationSpec,
    manifest: ClientManifest,
    schedule: Optional[FaultSchedule] = None,
) -> Any:
    """Add one fleet client, then set its upstream links.

    Each link to the resolver and to every pool server gets the client's
    access-link profile and one fault schedule: its static fault regime
    at t=0, composed into every entry of ``schedule`` (a chaos campaign's
    per-client schedule), so chaos layers on top of the regime.
    """
    client_class = CLIENT_REGISTRY[manifest.client_type]
    config = None
    if manifest.poll_multiplier != 1.0:
        default = client_class.default_config()
        config = replace(
            default, poll_interval=default.poll_interval * manifest.poll_multiplier
        )
    client = testbed.add_client(
        client_class,
        config=config,
        initial_clock_offset=manifest.initial_clock_offset,
    )

    network = testbed.network
    profile = spec.link_profile_table()[manifest.link_profile]
    link = None
    if profile.latency != testbed.config.link_latency or profile.loss:
        link = Link(latency=profile.latency, loss_probability=profile.loss)
    static = _fault_components(regime_table(spec.fault_regimes)[manifest.fault_regime])
    chaos = schedule.entries if schedule is not None else ()
    entries = [(time, static + components) for time, components in chaos]
    if static and (not entries or entries[0][0] > 0.0):
        entries.insert(0, (0.0, static))
    faults = FaultSchedule(entries) if entries else None
    ip = client.host.ip
    for upstream in (RESOLVER_IP, *testbed.pool.addresses):
        if link is not None:
            network.set_link(ip, upstream, link)
        if faults is not None:
            network.apply_fault_schedule(ip, upstream, faults)
    return client


def run_fleet(
    spec: PopulationSpec,
    seed: int,
    detail_limit: int = 32,
    *,
    run_until: Optional[float] = None,
    link_schedules: Optional[Mapping[int, Any]] = None,
    group_of: Optional[Sequence[str]] = None,
) -> dict[str, Any]:
    """Run the run-time attack against every client of a generated fleet.

    Returns a JSON-safe document: fleet-level success counts, the
    streaming aggregate, network-wide fault counters, and simulator
    accounting.  Per-client detail rows (``clients``) are included only
    for fleets of at most ``detail_limit`` clients, keeping the payload
    constant-size at population scale.

    The keyword hooks are the chaos-campaign wiring
    (:mod:`repro.population.chaos`):

    * ``run_until`` — absolute simulator-clock cutoff; ``None`` keeps the
      exact original run length (warmup plus the full attack window),
      which is what the Table II cells (fleets of one) run.
    * ``link_schedules`` — ``{client index: FaultSchedule}``; each
      scheduled client's upstream links (resolver plus every pool server)
      get the schedule applied, composed on top of the client's own
      spec-level fault regime.  Unscheduled clients are untouched.
    * ``group_of`` — per-client correlation-group labels; when given the
      document gains a ``groups`` section with per-group success counts
      and per-group :class:`~repro.netsim.faults.FaultStats` summed over
      the group's directed link pairs.
    """
    fleet = generate_fleet(spec, seed)
    scenario_enum = RunTimeScenario(spec.attack)
    testbed = build_testbed(
        TestbedConfig(
            seed=seed,
            pool_size=spec.pool_size,
            pool_rate_limit_fraction=spec.pool_rate_limit_fraction,
            resolver_validates_dnssec=spec.resolver.validates_dnssec,
            resolver_drops_fragments=spec.resolver.drops_fragments,
        )
    )
    simulator = testbed.simulator

    clients = []
    for manifest in fleet.clients:
        schedule = link_schedules.get(manifest.index) if link_schedules else None
        client = _attach_client(testbed, spec, manifest, schedule)
        clients.append(client)
        if manifest.join_time == 0.0:
            client.start()
        else:
            simulator.schedule(
                manifest.join_time, client.start, label="population-join"
            )
        if manifest.leave_time is not None:
            simulator.schedule(
                manifest.leave_time, client.stop, label="population-leave"
            )

    warmup = spec.warmup_seconds
    if run_until is not None:
        warmup = min(warmup, max(run_until, 0.0))
    testbed.run_for(warmup)

    attacks = [
        RunTimeAttack(
            testbed.attacker,
            simulator,
            testbed.resolver,
            client,
            scenario=scenario_enum,
            known_server_list=testbed.pool.addresses,
            max_duration=3600.0 * spec.max_duration_hours,
        )
        for client in clients
    ]
    # Poison once per distinct pool-domain set: clients of the same model
    # share their domains, and the resolver cache is shared fleet-wide.  A
    # resolver that drops fragments cannot be poisoned this way (section
    # III's fragment-filtering variant), so nothing is planted into it.
    poisoned: set[frozenset] = set()
    for attack in attacks:
        domains = frozenset(attack.victim.config.pool_domains)
        if domains not in poisoned and not spec.resolver.drops_fragments:
            poisoned.add(domains)
            attack.poison_resolver_directly()
    for attack in attacks:
        attack.start()
    check_interval = attacks[0].check_interval
    if run_until is None:
        simulator.run_for(3600.0 * spec.max_duration_hours + 2 * check_interval)
    else:
        remaining = run_until - simulator.now
        if remaining > 0.0:
            simulator.run_for(remaining)

    aggregate = StreamingAggregate()
    details = []
    include_details = fleet.size <= detail_limit
    group_counts: dict[str, list[int]] = {}
    ip_to_group: dict[str, str] = {}
    for manifest, client, attack in zip(fleet.clients, clients, attacks):
        result = attack.conclude()
        aggregate.fold(
            manifest.client_type,
            result.success,
            shift=result.clock_shift_achieved,
            minutes=result.attack_duration_minutes,
        )
        if group_of is not None:
            label = group_of[manifest.index]
            if label:
                counters = group_counts.setdefault(label, [0, 0])
                counters[0] += 1
                counters[1] += int(result.success)
                ip_to_group[client.host.ip] = label
        if include_details:
            details.append(
                {
                    "index": manifest.index,
                    "client_type": manifest.client_type,
                    "success": result.success,
                    "minutes": result.attack_duration_minutes,
                    "shift": result.clock_shift_achieved,
                }
            )

    network = testbed.network
    fleet_faults = network.fault_stats()
    aggregate.fold_faults(fleet_faults.to_document())

    document: dict[str, Any] = {
        "scenario": scenario_enum.value,
        "seed": seed,
        "spec_digest": fleet.spec_digest,
        "size": fleet.size,
        "successes": aggregate.successes,
        "success_rate": aggregate.success_rate,
        "type_counts": fleet.type_counts(),
        "aggregate": aggregate.to_document(),
        "events_processed": simulator.events_processed,
        "packets_transmitted": network.packets_transmitted,
        "packets_dropped": network.packets_dropped,
        "fault_stats": fleet_faults.to_document(),
    }
    if group_counts:
        group_faults = {label: FaultStats() for label in group_counts}
        for (src, dst), stats in network.per_pair_fault_stats().items():
            label = ip_to_group.get(src) or ip_to_group.get(dst)
            if label in group_faults:
                group_faults[label].merge(stats)
        document["groups"] = {
            label: {
                "clients": group_counts[label][0],
                "successes": group_counts[label][1],
                "success_rate": round(
                    group_counts[label][1] / group_counts[label][0], 6
                ),
                "fault_stats": group_faults[label].to_document(),
            }
            for label in sorted(group_counts)
        }
    if include_details:
        document["clients"] = details
    return document


__all__ = ["run_fleet"]
