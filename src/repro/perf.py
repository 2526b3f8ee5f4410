"""Per-stage wall-time counters for the wire-layer hot paths.

The benchmark of record's traced pass (``perfbench/spans.py``) needs to know
*where* an end-to-end run spends its time — decode, encode, the delivery
stages, the event loop or the attack driver — so each change can aim at the
actual bottleneck instead of guessing.  Timing every packet unconditionally
would slow the hot path it is supposed to measure, so the counters are
**off by default**: instrumented sites check a single attribute
(``STAGES.enabled``) and skip both ``perf_counter`` calls when disabled,
and the compiled delivery datapaths route through their uninstrumented
flat paths.

Codecs, the event loop and the attack driver record through :meth:`add` /
:meth:`add_many`.  The timed delivery datapath
(:meth:`repro.netsim.datapath.HostDatapath._deliver_timed`) instead bumps
the float slots of its four stages (``defrag``, ``checksum``, ``demux``,
``handler``) directly, so the per-packet instrumented path writes two
floats per stage rather than two dict entries; :meth:`merged` folds them
in.  ``handler`` wall time *contains* the codec calls made inside datagram
handlers, so readers subtract the codec time to keep the buckets disjoint.
"""

from __future__ import annotations

from time import perf_counter


class StageCounters:
    """Accumulates wall time and call counts per named stage.

    ``add`` is called from hot paths only while ``enabled`` is true, so the
    disabled cost is one attribute read per instrumented call.
    """

    __slots__ = (
        "enabled",
        "times",
        "calls",
        "t_defrag",
        "t_checksum",
        "t_demux",
        "t_handler",
        "n_defrag",
        "n_checksum",
        "n_demux",
        "n_handler",
    )

    def __init__(self) -> None:
        self.enabled = False
        self.times: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.reset()

    def enable(self) -> None:
        """Switch collection on (counters keep accumulating until reset)."""
        self.enabled = True

    def disable(self) -> None:
        """Switch collection off; accumulated values remain readable."""
        self.enabled = False

    def reset(self) -> None:
        """Zero all counters (collection state unchanged)."""
        self.times.clear()
        self.calls.clear()
        self.t_defrag = self.t_checksum = self.t_demux = self.t_handler = 0.0
        self.n_defrag = self.n_checksum = self.n_demux = self.n_handler = 0

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
        """Copies of the counters with the delivery-stage slots folded in.

        A slot stage appears only once it has been called, like any stage
        recorded through :meth:`add`.
        """
        times = dict(self.times)
        calls = dict(self.calls)
        for stage, seconds, count in (
            ("defrag", self.t_defrag, self.n_defrag),
            ("checksum", self.t_checksum, self.n_checksum),
            ("demux", self.t_demux, self.n_demux),
            ("handler", self.t_handler, self.n_handler),
        ):
            if count:
                times[stage] = times.get(stage, 0.0) + seconds
                calls[stage] = calls.get(stage, 0) + count
        return times, calls


#: The process-wide counter instance the instrumented sites consult.
STAGES = StageCounters()

#: Re-exported so codec modules need a single import for the guarded pattern:
#: ``if STAGES.enabled: t0 = perf_counter(); ...; STAGES.add(name, perf_counter() - t0)``.
__all__ = ["STAGES", "StageCounters", "perf_counter"]
