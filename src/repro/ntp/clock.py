"""System clock model.

Each host that runs an NTP client or server owns a :class:`SystemClock`.
The clock's reading is ``true_time + offset + drift * elapsed``, where "true
time" is the simulator clock.  A time-shifting attack succeeds when it drives
the *offset* of the victim's clock to the attacker's target (the paper's lab
evaluation shifts clients by -500 seconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ClockAdjustment:
    """A record of one applied adjustment (for attack-duration analysis)."""

    true_time: float
    amount: float
    stepped: bool


@dataclass(slots=True)
class SystemClock:
    """A drifting, adjustable clock.

    Parameters
    ----------
    offset:
        Initial offset from true time in seconds (e.g. a machine booting with
        a dead RTC battery can start hours off).
    drift_ppm:
        Frequency error in parts-per-million; accumulates between
        adjustments.
    """

    offset: float = 0.0
    drift_ppm: float = 0.0
    created_at: float = 0.0
    adjustments: list[ClockAdjustment] = field(default_factory=list)

    def time(self, true_time: float) -> float:
        """The clock's reading at simulator time ``true_time``."""
        elapsed = true_time - self.created_at
        return true_time + self.offset + self.drift_ppm * 1e-6 * elapsed

    def error(self, true_time: float) -> float:
        """Signed error of the clock versus true time."""
        return self.time(true_time) - true_time

    def step(self, amount: float, true_time: float) -> None:
        """Step the clock by ``amount`` seconds (instantaneous jump)."""
        self.offset += amount
        self.adjustments.append(ClockAdjustment(true_time, amount, stepped=True))

    def slew(self, amount: float, true_time: float, max_rate: float = 0.0005) -> float:
        """Apply a bounded gradual correction and return the applied amount.

        Real clock disciplines slew at most ~500 ppm; for the purposes of the
        attack-duration experiments the distinction that matters is that
        large shifts require a *step*, which clients only perform after
        sustained evidence.
        """
        applied = max(-max_rate, min(max_rate, amount))
        self.offset += applied
        self.adjustments.append(ClockAdjustment(true_time, applied, stepped=False))
        return applied

    def total_stepped(self) -> float:
        """Sum of all stepped adjustments (how far attacks moved the clock)."""
        return sum(a.amount for a in self.adjustments if a.stepped)
