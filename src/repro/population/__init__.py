"""Population engine: declarative client fleets and landscape sweeps.

The paper evaluated its attacks against Internet-scale populations —
millions of NTP clients with heterogeneous software, network conditions
and churn — while the repo's original scenarios simulate one victim
against one pool per run.  This package closes that gap as a layer
between the netsim core and the experiment data plane:

* :mod:`repro.population.spec` — frozen, layered :class:`PopulationSpec`
  dataclasses (client-type market shares, poll jitter, churn, link and
  fault mixes, resolver topology, seeded noise layers) that round-trip
  through canonical JSON.  Default market shares come from the paper marginals in
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
  through the durable run store.  Import its names from the submodule:
  this package does not re-export them, so ``python -m
  repro.population.chaos`` never imports the module twice.
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
)

__all__ = [
    "BUILTIN_LINK_PROFILES",
    "ChurnSpec",
    "ClientManifest",
    "FaultRegimeSpec",
    "FixedBinHistogram",
    "FleetManifest",
    "LinkProfileSpec",
    "NoiseLayer",
    "PopulationSpec",
    "ResolverTopology",
    "StreamingAggregate",
    "generate_fleet",
]
