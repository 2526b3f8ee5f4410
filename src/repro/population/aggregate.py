"""Streaming, constant-memory aggregation for population-scale sweeps.

A thousand-client fleet must not return a thousand per-client dicts
through the run store — at landscape scale that turns every sweep record
into megabytes.  Instead, fleets fold each client result into a
:class:`StreamingAggregate` as it resolves: success counts, per-client-type
breakdowns, and clock-shift / attack-duration quantiles held in
**fixed-bin histograms** whose memory is a function of the bin count, not
the fleet size.  Aggregates merge associatively (cell + cell = region), and
serialise to plain-JSON documents that ride in each fleet's result, so
every stored outcome record carries its cell's aggregate.

This module deliberately imports nothing else from ``repro``.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional


class FixedBinHistogram:
    """Equal-width bins over ``[lo, hi)`` with underflow/overflow buckets.

    Quantiles interpolate linearly inside the selected bin, which bounds
    the error by one bin width — the right trade for landscape cells,
    where the bin count (not the sample count) fixes the memory.
    """

    __slots__ = ("lo", "hi", "bins", "counts", "underflow", "overflow", "total")

    def __init__(self, lo: float, hi: float, bins: int) -> None:
        if not bins > 0:
            raise ValueError(f"bins must be > 0, got {bins}")
        if not hi > lo:
            raise ValueError(f"need hi > lo, got [{lo}, {hi})")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = int(bins)
        self.counts = [0] * self.bins
        self.underflow = 0
        self.overflow = 0
        self.total = 0

    # ------------------------------------------------------------- folding
    def add(self, value: float) -> None:
        self.total += 1
        if value < self.lo:
            self.underflow += 1
            return
        if value >= self.hi:
            self.overflow += 1
            return
        index = int((value - self.lo) * self.bins / (self.hi - self.lo))
        # Guard the hi-adjacent float edge case (value*scale rounding up).
        self.counts[min(index, self.bins - 1)] += 1

    def add_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "FixedBinHistogram") -> None:
        if (other.lo, other.hi, other.bins) != (self.lo, self.hi, self.bins):
            raise ValueError(
                "cannot merge histograms with different binning: "
                f"[{self.lo}, {self.hi})x{self.bins} vs "
                f"[{other.lo}, {other.hi})x{other.bins}"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.total += other.total

    # ------------------------------------------------------------ quantiles
    def quantile(self, q: float) -> Optional[float]:
        """Approximate ``q``-quantile (``None`` on an empty histogram).

        Under/overflow samples clamp to the range edges — the histogram
        knows only that they fell outside.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            return None
        rank = q * (self.total - 1)
        cumulative = self.underflow
        if rank < cumulative:
            return self.lo
        width = (self.hi - self.lo) / self.bins
        for index, count in enumerate(self.counts):
            if count and rank < cumulative + count:
                # Linear interpolation within the bin.
                fraction = (rank - cumulative + 0.5) / count
                return self.lo + (index + min(fraction, 1.0)) * width
            cumulative += count
        return self.hi

    # --------------------------------------------------------- serialisation
    def to_document(self) -> dict[str, Any]:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "bins": self.bins,
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
            "total": self.total,
        }

    @classmethod
    def from_document(cls, document: Mapping[str, Any]) -> "FixedBinHistogram":
        histogram = cls(document["lo"], document["hi"], document["bins"])
        counts = list(document["counts"])
        if len(counts) != histogram.bins:
            raise ValueError(
                f"histogram document carries {len(counts)} counts for "
                f"{histogram.bins} bins"
            )
        histogram.counts = [int(count) for count in counts]
        histogram.underflow = int(document.get("underflow", 0))
        histogram.overflow = int(document.get("overflow", 0))
        histogram.total = int(document.get("total", 0))
        return histogram


#: Default binning for achieved clock shift (seconds; the paper's attacks
#: target shifts of hundreds of seconds either way).
SHIFT_RANGE = (-1000.0, 1000.0, 200)
#: Default binning for attack duration (minutes; Table II tops out ~180).
MINUTES_RANGE = (0.0, 240.0, 96)


class StreamingAggregate:
    """Constant-memory fold of per-client fleet results.

    ``fold`` consumes one client-result document (the shape
    :func:`repro.population.fleet.run_fleet` produces per client);
    ``merge`` combines cell aggregates associatively.  Everything
    serialises to a JSON document sized by the histogram bin counts.
    """

    __slots__ = ("total", "successes", "by_type", "shift", "minutes", "faults")

    def __init__(self) -> None:
        self.total = 0
        self.successes = 0
        #: Per-client-type ``[runs, successes]`` counters.
        self.by_type: dict[str, list[int]] = {}
        self.shift = FixedBinHistogram(*SHIFT_RANGE)
        self.minutes = FixedBinHistogram(*MINUTES_RANGE)
        #: Network fault-injection counters (``FaultStats`` field names),
        #: summed across every link the folded fleets touched.
        self.faults: dict[str, int] = {}

    def fold(
        self,
        client_type: str,
        success: bool,
        shift: Optional[float] = None,
        minutes: Optional[float] = None,
    ) -> None:
        self.total += 1
        counters = self.by_type.setdefault(client_type, [0, 0])
        counters[0] += 1
        if success:
            self.successes += 1
            counters[1] += 1
        if shift is not None:
            self.shift.add(float(shift))
        if minutes is not None:
            self.minutes.add(float(minutes))

    def fold_faults(self, counters: Mapping[str, Any]) -> None:
        """Sum a ``FaultStats.to_document()``-shaped counter map in."""
        for name, value in counters.items():
            self.faults[name] = self.faults.get(name, 0) + int(value)

    def merge(self, other: "StreamingAggregate") -> None:
        self.total += other.total
        self.successes += other.successes
        for client_type, (runs, wins) in other.by_type.items():
            counters = self.by_type.setdefault(client_type, [0, 0])
            counters[0] += runs
            counters[1] += wins
        self.shift.merge(other.shift)
        self.minutes.merge(other.minutes)
        self.fold_faults(other.faults)

    @property
    def success_rate(self) -> float:
        return self.successes / self.total if self.total else 0.0

    def to_document(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "successes": self.successes,
            "success_rate": round(self.success_rate, 6),
            "by_type": {
                name: {"runs": runs, "successes": wins}
                for name, (runs, wins) in sorted(self.by_type.items())
            },
            "shift_histogram": self.shift.to_document(),
            "minutes_histogram": self.minutes.to_document(),
            "shift_quantiles": {
                label: self.shift.quantile(q)
                for label, q in (("p10", 0.1), ("p50", 0.5), ("p90", 0.9))
            },
            "fault_stats": {
                name: count for name, count in sorted(self.faults.items())
            },
        }

    @classmethod
    def from_document(cls, document: Mapping[str, Any]) -> "StreamingAggregate":
        aggregate = cls()
        aggregate.total = int(document.get("total", 0))
        aggregate.successes = int(document.get("successes", 0))
        for name, counters in (document.get("by_type") or {}).items():
            aggregate.by_type[name] = [
                int(counters.get("runs", 0)),
                int(counters.get("successes", 0)),
            ]
        if "shift_histogram" in document:
            aggregate.shift = FixedBinHistogram.from_document(
                document["shift_histogram"]
            )
        if "minutes_histogram" in document:
            aggregate.minutes = FixedBinHistogram.from_document(
                document["minutes_histogram"]
            )
        aggregate.fold_faults(document.get("fault_stats") or {})
        return aggregate


__all__ = [
    "FixedBinHistogram",
    "MINUTES_RANGE",
    "SHIFT_RANGE",
    "StreamingAggregate",
]
