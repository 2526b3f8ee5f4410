"""Success-probability analysis of the run-time attack (paper section V-B, Table III).

The run-time attack works only against associations whose server actually
enforces rate limiting.  With ``p_rate`` the probability that a random pool
server rate-limits (the paper's scan measured 38 %), the paper derives:

* **Scenario 1** (servers discovered one-by-one, no choice): all ``n``
  servers that must be removed have to rate-limit, so
  ``P1(n) = p_rate ** n``.
* **Scenario 2** (server list known up front, attacker picks which to
  remove): at least ``n`` of the ``m`` used servers must rate-limit, so
  ``P2(m, n) = sum_{i=n}^{m} C(m, i) p^i (1-p)^(m-i)``.

Table III evaluates both for ``m = 1..9`` with
``n = max(ceil(m/2), m-2)`` — the number of servers that must be removed so
the client both loses its majority of honest time sources and (for ntpd-like
clients) drops below the threshold that triggers a new DNS lookup.

The Monte-Carlo estimators cross-check the closed forms and are reused by
the measurement benchmarks to validate the synthetic pool population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Rate-limiting prevalence measured by the paper's pool scan (section VII-A).
PAPER_P_RATE = 0.38

# NOTE on the paper's formula rendering: the text of P2 shows
# ``p^i * p^(m-i)`` but the accompanying description ("probability that
# exactly i out of m servers do rate limiting") and the tabulated values
# correspond to the standard binomial tail with ``(1-p)^(m-i)``; we implement
# the binomial tail, which reproduces Table III.


def probability_scenario1(n: int, p_rate: float = PAPER_P_RATE) -> float:
    """P1(n): probability that ``n`` specific servers all rate-limit."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return p_rate ** n


def probability_scenario2(m: int, n: int, p_rate: float = PAPER_P_RATE) -> float:
    """P2(m, n): probability that at least ``n`` of ``m`` servers rate-limit."""
    if not 0 <= n <= m:
        raise ValueError(f"need 0 <= n <= m, got n={n}, m={m}")
    total = 0.0
    for i in range(n, m + 1):
        total += math.comb(m, i) * (p_rate ** i) * ((1 - p_rate) ** (m - i))
    return total


def required_removals(m: int) -> int:
    """The ``n`` used by Table III for a client with ``m`` associations.

    The attacker must remove a strict majority of the servers
    (``floor(m/2) + 1``, so that the shifted time wins the client's
    selection) and, for the ntpd association-management behaviour, enough
    servers to fall below the re-query threshold (``m - 2``); Table III uses
    the larger of the two.  (The paper's table header writes the majority
    term as ``ceil(m/2)``, but the tabulated n values — e.g. n=3 for m=4 and
    n=2 for m=2 — correspond to the strict majority, which is what we
    implement.)
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return max(m // 2 + 1, m - 2)


@dataclass
class Table3Row:
    """One row of Table III."""

    m: int
    n: int
    p1: float
    p2: float


def table3_rows(
    m_values: range | list[int] = range(1, 10), p_rate: float = PAPER_P_RATE
) -> list[Table3Row]:
    """Compute all rows of Table III for the given ``m`` values."""
    rows = []
    for m in m_values:
        n = required_removals(m)
        rows.append(
            Table3Row(
                m=m,
                n=n,
                p1=probability_scenario1(n, p_rate),
                p2=probability_scenario2(m, n, p_rate),
            )
        )
    return rows


def _rate_limit_draws(
    trials: int, m: int, p_rate: float, rng: np.random.Generator | None
) -> np.ndarray:
    """One ``(trials, m)`` boolean matrix: does server ``j`` rate-limit in trial ``i``?"""
    rng = rng or np.random.default_rng(0)
    return rng.random((trials, m)) < p_rate


def monte_carlo_scenario1(
    n: int,
    p_rate: float = PAPER_P_RATE,
    trials: int = 100_000,
    rng: np.random.Generator | None = None,
) -> float:
    """Monte-Carlo estimate of P1(n) (cross-check for the closed form)."""
    if n == 0:
        return 1.0
    draws = _rate_limit_draws(trials, n, p_rate, rng)
    return float(np.mean(np.all(draws, axis=1)))


def monte_carlo_scenario2(
    m: int,
    n: int,
    p_rate: float = PAPER_P_RATE,
    trials: int = 100_000,
    rng: np.random.Generator | None = None,
) -> float:
    """Monte-Carlo estimate of P2(m, n)."""
    draws = _rate_limit_draws(trials, m, p_rate, rng)
    return float(np.mean(np.sum(draws, axis=1) >= n))


def monte_carlo_table3(
    m_values: range | list[int] = range(1, 10),
    p_rate: float = PAPER_P_RATE,
    trials: int = 100_000,
    rng: np.random.Generator | None = None,
) -> dict[int, tuple[float, float]]:
    """Monte-Carlo estimates ``{m: (P1(n), P2(m, n))}`` for all Table III rows.

    Draws a *single* ``(trials, max_m)`` matrix and reuses its column
    prefixes for every row — one RNG pass instead of one per (row, column)
    cell (the pre-vectorised benchmark drew nine m-sized matrices twice
    over).  With a cumulative sum across servers, row ``m`` reads:

    * ``P1(n)``: the first ``n`` servers all rate-limit, i.e. the running
      count after column ``n`` equals ``n``;
    * ``P2(m, n)``: at least ``n`` of the first ``m`` servers rate-limit.
    """
    m_list = list(m_values)
    if not m_list:
        return {}
    pairs = [(m, required_removals(m)) for m in m_list]
    width = max(max(m for m, _ in pairs), max(n for _, n in pairs))
    draws = _rate_limit_draws(trials, width, p_rate, rng)
    counts = np.cumsum(draws, axis=1)
    estimates: dict[int, tuple[float, float]] = {}
    for m, n in pairs:
        p1 = 1.0 if n == 0 else float(np.mean(counts[:, n - 1] == n))
        p2 = float(np.mean(counts[:, m - 1] >= n))
        estimates[m] = (p1, p2)
    return estimates

