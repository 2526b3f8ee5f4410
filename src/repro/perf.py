"""Per-stage wall-time counters for the wire-layer hot paths.

The experiment engine and benchmarks need to know *where* an end-to-end run
spends its time — decode, encode, the delivery-pipeline stages, or the
remainder (event dispatch, attack logic, transmit) — so each PR can aim at
the actual bottleneck instead of guessing.  Timing every packet
unconditionally would slow the hot path it is supposed to measure, so the
counters are **off by default**: codec entry points check a single
attribute (``STAGES.enabled``) and skip both ``perf_counter`` calls when
disabled, and the compiled delivery pipelines route through their
uninstrumented flat paths.

Two kinds of sources feed a snapshot:

* codecs call :meth:`StageCounters.add` directly per timed operation, and
* compiled :class:`~repro.netsim.datapath.HostDatapath` objects accumulate
  per-stage delivery time (``defrag``, ``checksum``, ``demux``,
  ``handler``) in slots and register themselves via
  :meth:`StageCounters.attach`; snapshots merge them on demand so the
  per-packet instrumented path writes two floats instead of four dict
  entries.

Enable collection either directly (``STAGES.enable()``) or through
:class:`repro.experiments.runner.ExperimentRunner` with
``collect_stage_stats=True``, which also propagates the setting to worker
processes via the ``REPRO_STAGE_STATS`` environment variable and attaches a
:meth:`StageCounters.snapshot` to each run outcome.
"""

from __future__ import annotations

import weakref
from time import perf_counter
from typing import Any, Mapping, Optional

#: Environment variable the experiment engine uses to switch collection on in
#: worker processes (anything non-empty enables it).
STAGE_STATS_ENV = "REPRO_STAGE_STATS"

#: Stage names grouped into the aggregate buckets reported as shares.
DECODE_STAGES = ("dns_decode", "ntp_decode")
ENCODE_STAGES = ("dns_encode", "ntp_encode")
#: Delivery-pipeline stages (see repro.netsim.datapath).  ``handler`` wall
#: time *contains* the codec calls made inside datagram handlers; shares
#: subtract the codec aggregate so the reported buckets stay disjoint.
PIPELINE_STAGES = ("defrag", "checksum", "demux", "handler")
#: Event-dispatch stages split out of the old ``dispatch_other`` remainder
#: by the burst-execution engine: ``heap`` is the measured heap-pop share
#: of the simulator drain (a lower bound — pushes happen inside callbacks),
#: ``burst_drain`` the spray drain's own work (header unpack, checksum
#: fold, stats and demux; see :mod:`repro.netsim.burst`), and
#: ``faults`` the per-packet fault-channel decisions on faulted links
#: (zero on every fault-free run; see :mod:`repro.netsim.faults`).
DISPATCH_STAGES = ("heap", "burst_drain", "faults")
#: Driver-side stages split out of the remaining ``dispatch_other`` bucket:
#: scenario/attack-campaign logic that runs *between* deliveries.
#: ``campaign_send`` is the association-removal campaign's spoofed-query
#: crafting + burst hand-off (:class:`repro.core.rate_limit_abuse.
#: AssociationRemover` — arithmetic packet construction, no codec calls, so
#: the bucket never double-counts encode time), and ``progress_check`` the
#: periodic attack-progress polling of
#: :class:`repro.core.run_time.RunTimeAttack`.
DRIVER_STAGES = ("campaign_send", "progress_check")

#: Prune threshold for the attached-source registry (dead weakrefs).
_ATTACH_PRUNE_THRESHOLD = 4096


def stage_shares(
    decode_seconds: float,
    encode_seconds: float,
    wall_time: float,
    pipeline_seconds: Optional[Mapping[str, float]] = None,
) -> dict[str, Any]:
    """The wall-time attribution block shared by snapshots and summaries.

    ``pipeline_seconds`` maps delivery stage names (``defrag``,
    ``checksum``, ``demux``, ``handler``) to accumulated seconds.  Because
    nearly every codec call happens inside a datagram handler, the
    ``handler`` share is reported *net of* the decode/encode aggregate so
    decode + encode + pipeline stages + dispatch_other ≈ 1.  Known bias:
    encode performed *outside* handlers (timer-driven client sends) is
    still subtracted, so ``handler`` reads slightly low and
    ``dispatch_other`` slightly high in encode-heavy sweeps — the buckets
    are an attribution guide, not an exact partition.
    ``dispatch_other`` is the remainder: event-loop dispatch, transmit,
    scheduling and scenario logic outside the delivery pipeline.
    """
    pipeline_seconds = pipeline_seconds or {}
    document: dict[str, Any] = {
        "decode_seconds": round(decode_seconds, 6),
        "encode_seconds": round(encode_seconds, 6),
        "wall_time_seconds": round(wall_time, 6),
    }
    if not wall_time:
        document["shares"] = {
            "decode": 0.0,
            "encode": 0.0,
            "dispatch_other": 0.0,
        }
        return document
    shares: dict[str, float] = {
        "decode": round(decode_seconds / wall_time, 4),
        "encode": round(encode_seconds / wall_time, 4),
    }
    attributed = decode_seconds + encode_seconds
    for stage in PIPELINE_STAGES + DISPATCH_STAGES + DRIVER_STAGES:
        seconds = pipeline_seconds.get(stage, 0.0)
        if stage == "handler":
            # Handlers invoke the codecs; keep the buckets disjoint.
            seconds = max(0.0, seconds - decode_seconds - encode_seconds)
        if seconds:
            shares[stage] = round(seconds / wall_time, 4)
            attributed += seconds
    shares["dispatch_other"] = round(max(0.0, 1.0 - attributed / wall_time), 4)
    document["shares"] = shares
    return document


class StageCounters:
    """Accumulates wall time and call counts per named stage.

    ``add`` is called from codec hot paths only while ``enabled`` is true,
    so the disabled cost is one attribute read per codec call.  Delivery
    datapaths accumulate their stage times locally and are merged at
    snapshot time via the attached-source registry.
    """

    __slots__ = ("enabled", "times", "calls", "_sources", "_pinned")

    def __init__(self) -> None:
        self.enabled = False
        self.times: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._sources: list[weakref.ref] = []
        #: Strong references held ONLY for sources attached (or alive) while
        #: collection is enabled: a host/datapath pair is a reference cycle,
        #: so without a pin a cyclic-GC pass between simulation teardown and
        #: snapshot() would silently drop the pipeline stage attribution.
        #: Cleared by reset(), so disabled runs never leak sources.
        self._pinned: list[Any] = []

    def enable(self) -> None:
        """Switch collection on (counters keep accumulating until reset).

        Live already-attached sources are pinned so their accumulators
        survive until the snapshot even if their owners become garbage.
        """
        self.enabled = True
        pinned = {id(source) for source in self._pinned}
        for ref in self._sources:
            source = ref()
            if source is not None and id(source) not in pinned:
                self._pinned.append(source)

    def disable(self) -> None:
        """Switch collection off; accumulated values remain readable."""
        self.enabled = False

    def reset(self) -> None:
        """Zero all counters, direct and attached (collection state unchanged).

        Live attached sources stay registered — their accumulators are
        zeroed in place, so hosts built before a manual ``reset()`` keep
        reporting into subsequent snapshots; dead references and the
        GC pins are dropped (re-pinned while collection is enabled).
        """
        self.times.clear()
        self.calls.clear()
        self._pinned.clear()
        live = []
        for ref in self._sources:
            source = ref()
            if source is not None:
                source.reset_stage_counters()
                live.append(ref)
                if self.enabled:
                    self._pinned.append(source)
        self._sources = live

    def attach(self, source: Any) -> None:
        """Register an object exposing ``collect_into(times, calls)`` and
        ``reset_stage_counters()``.

        Held by weak reference — sources live exactly as long as their
        owners (hosts) — plus a strong pin while collection is enabled so
        the attribution cannot be garbage-collected away before the
        snapshot that reads it.
        """
        sources = self._sources
        if len(sources) > _ATTACH_PRUNE_THRESHOLD:
            self._sources = sources = [ref for ref in sources if ref() is not None]
        sources.append(weakref.ref(source))
        if self.enabled:
            self._pinned.append(source)

    def add(self, stage: str, elapsed: float) -> None:
        """Record one timed call of ``stage``."""
        self.times[stage] = self.times.get(stage, 0.0) + elapsed
        self.calls[stage] = self.calls.get(stage, 0) + 1

    def add_many(self, stage: str, elapsed: float, calls: int) -> None:
        """Record ``calls`` timed operations of ``stage`` in one update.

        Used by sources that accumulate locally over a whole drain (the
        simulator's heap timing, the delivery bursts) and reconcile once.
        """
        self.times[stage] = self.times.get(stage, 0.0) + elapsed
        self.calls[stage] = self.calls.get(stage, 0) + calls

    def merged(self) -> tuple[dict[str, float], dict[str, int]]:
        """Direct counters plus every live attached source, non-destructively."""
        times = dict(self.times)
        calls = dict(self.calls)
        for ref in self._sources:
            source = ref()
            if source is not None:
                source.collect_into(times, calls)
        return times, calls

    # ------------------------------------------------------------- reporting
    def snapshot(self, wall_time: Optional[float] = None) -> dict[str, Any]:
        """A JSON-ready summary of the counters.

        With ``wall_time`` (seconds of the run being attributed), the
        snapshot also reports each bucket's share of the wall clock: the
        decode/encode aggregates, the named delivery-pipeline stages, and
        the ``dispatch_other`` remainder — event-loop dispatch, transmit,
        scheduling, and scenario logic.
        """
        times, calls = self.merged()
        decode = sum(times.get(stage, 0.0) for stage in DECODE_STAGES)
        encode = sum(times.get(stage, 0.0) for stage in ENCODE_STAGES)
        document: dict[str, Any] = {
            "stages": {
                stage: {
                    "seconds": round(times[stage], 6),
                    "calls": calls.get(stage, 0),
                }
                for stage in sorted(times)
            },
            "decode_seconds": round(decode, 6),
            "encode_seconds": round(encode, 6),
        }
        if wall_time is not None and wall_time > 0:
            pipeline = {
                stage: times.get(stage, 0.0)
                for stage in PIPELINE_STAGES + DISPATCH_STAGES + DRIVER_STAGES
            }
            attribution = stage_shares(decode, encode, wall_time, pipeline)
            document["wall_time_seconds"] = attribution["wall_time_seconds"]
            document["shares"] = attribution["shares"]
        return document


#: The process-wide counter instance the codecs consult.
STAGES = StageCounters()

#: Re-exported so codec modules need a single import for the guarded pattern:
#: ``if STAGES.enabled: t0 = perf_counter(); ...; STAGES.add(name, perf_counter() - t0)``.
__all__ = [
    "STAGES",
    "StageCounters",
    "STAGE_STATS_ENV",
    "perf_counter",
    "DECODE_STAGES",
    "ENCODE_STAGES",
    "PIPELINE_STAGES",
    "DISPATCH_STAGES",
    "DRIVER_STAGES",
    "stage_shares",
]
