"""Population engine: declarative client fleets and landscape sweeps.

The paper evaluated its attacks against Internet-scale populations —
millions of NTP clients with heterogeneous software, network conditions
and churn — while the repo's original scenarios simulate one victim
against one pool per run.  This package closes that gap as a layer
between the netsim core and the experiment data plane:

* :mod:`repro.population.spec` — frozen, layered :class:`PopulationSpec`
  dataclasses (client-type market shares, poll jitter, churn, link and
  fault mixes, resolver topology, seeded noise layers), loadable from
  TOML or JSON.  Default market shares come from the paper marginals in
  :mod:`repro.measurement.population` — the single source of truth.
* :mod:`repro.population.generate` — a pure function of ``(spec, seed)``
  producing concrete per-client manifests from named RNG streams, so
  generation is deterministic and order-independent.
* :mod:`repro.population.fleet` — runs a whole fleet (thousands of
  clients sharing one network/heap) through the run-time attack.
* :mod:`repro.population.aggregate` — constant-memory streaming
  aggregation (success counts, fixed-bin shift histograms, per-type
  breakdowns) folded into run-store records.
* :mod:`repro.population.landscape` — sweeps attack success over
  population-mix axes into ≥3×3 probability grids through
  ``run_stored``, rendered by :func:`repro.measurement.report.
  landscape_report`.
* :mod:`repro.population.chaos` — declarative fleet-scale fault
  orchestration: :class:`ChaosPlan` correlation groups + phased regimes
  compile purely into per-link fault schedules, and
  :func:`run_chaos_campaign` drives resumable long-horizon campaigns
  through the durable run store.
"""

from repro.population.aggregate import FixedBinHistogram, StreamingAggregate
from repro.population.generate import ClientManifest, FleetManifest, generate_fleet
from repro.population.spec import (
    BUILTIN_LINK_PROFILES,
    ChurnSpec,
    FaultRegimeSpec,
    LinkProfileSpec,
    NoiseLayer,
    PopulationSpec,
    ResolverTopology,
    load_spec,
)

#: Chaos names are exported lazily: importing them eagerly would make
#: ``python -m repro.population.chaos`` re-execute the module runpy is
#: about to run (the double-import RuntimeWarning).
_CHAOS_EXPORTS = (
    "CampaignHorizon",
    "ChaosPhase",
    "ChaosPlan",
    "CorrelationGroup",
    "compile_chaos",
    "load_chaos_plan",
    "resume_chaos_campaign",
    "run_chaos_campaign",
)


def __getattr__(name: str):
    if name in _CHAOS_EXPORTS:
        from repro.population import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BUILTIN_LINK_PROFILES",
    "CampaignHorizon",
    "ChaosPhase",
    "ChaosPlan",
    "ChurnSpec",
    "ClientManifest",
    "CorrelationGroup",
    "FaultRegimeSpec",
    "FixedBinHistogram",
    "FleetManifest",
    "LinkProfileSpec",
    "NoiseLayer",
    "PopulationSpec",
    "ResolverTopology",
    "StreamingAggregate",
    "compile_chaos",
    "generate_fleet",
    "load_chaos_plan",
    "load_spec",
    "resume_chaos_campaign",
    "run_chaos_campaign",
]
