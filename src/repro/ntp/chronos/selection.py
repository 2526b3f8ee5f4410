"""Chronos' Byzantine-tolerant sample selection.

Given offset samples from a random subset of the pool, Chronos:

1. sorts the samples and discards the lowest third and the highest third,
2. checks that the surviving samples agree with each other (spread below
   ``agreement_bound``) and do not diverge too far from the local clock
   (``drift_bound``, the `ERR` bound of the proposal),
3. if both checks pass, averages the survivors; otherwise it re-samples, and
   after ``max_retries`` failures enters *panic mode*, querying the entire
   pool and averaging the middle third of all responses.

The guarantee — an attacker must control more than two thirds of the pool to
shift time — is exactly what the DNS attack of the paper defeats by stuffing
the pool with attacker addresses during generation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ChronosSelectionResult:
    """Outcome of one selection round."""

    accepted: bool
    offset: float
    surviving_samples: list[float]
    discarded_low: int
    discarded_high: int
    reason: str = ""


def chronos_select(
    samples: list[float],
    local_offset_estimate: float = 0.0,
    agreement_bound: float = 0.025,
    drift_bound: float = 0.125,
) -> ChronosSelectionResult:
    """Run one round of Chronos sample selection.

    Parameters
    ----------
    samples:
        Offset samples (seconds) measured against the queried servers.
    local_offset_estimate:
        The client's current belief about its own offset (0 for a disciplined
        clock); survivors must not diverge from it by more than ``drift_bound``.
    agreement_bound:
        Maximum spread allowed between the surviving samples (the proposal
        uses a few tens of milliseconds).
    drift_bound:
        Maximum distance of the surviving average from the local estimate
        before the round is rejected.
    """
    if not samples:
        return ChronosSelectionResult(
            accepted=False,
            offset=0.0,
            surviving_samples=[],
            discarded_low=0,
            discarded_high=0,
            reason="no samples",
        )
    ordered = sorted(samples)
    third = len(ordered) // 3
    survivors = ordered[third : len(ordered) - third] if third > 0 else list(ordered)
    if not survivors:
        survivors = list(ordered)

    spread = max(survivors) - min(survivors)
    average = float(np.mean(survivors))
    if spread > agreement_bound:
        return ChronosSelectionResult(
            accepted=False,
            offset=average,
            surviving_samples=survivors,
            discarded_low=third,
            discarded_high=third,
            reason=f"survivors disagree (spread {spread:.3f}s)",
        )
    if abs(average - local_offset_estimate) > drift_bound:
        return ChronosSelectionResult(
            accepted=False,
            offset=average,
            surviving_samples=survivors,
            discarded_low=third,
            discarded_high=third,
            reason=f"survivors diverge from local clock ({average:+.3f}s)",
        )
    return ChronosSelectionResult(
        accepted=True,
        offset=average,
        surviving_samples=survivors,
        discarded_low=third,
        discarded_high=third,
    )


def panic_select(samples: list[float]) -> float:
    """Panic-mode time calculation: average the middle third of all samples.

    Panic mode queries every server in the pool.  With the attacker
    controlling more than two thirds of the pool, even the middle third is
    attacker controlled, so panic mode converges to the attacker's time —
    the quantitative point behind the ``2/3`` bound of section VI-C.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    third = len(ordered) // 3
    middle = ordered[third : len(ordered) - third] if third > 0 else list(ordered)
    if not middle:
        middle = list(ordered)
    return float(np.mean(middle))


def minimum_attacker_fraction_to_shift() -> float:
    """The attacker-control fraction above which Chronos' guarantee fails."""
    return 2.0 / 3.0
