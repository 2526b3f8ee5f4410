"""Pure fleet generation: ``(spec, seed) -> FleetManifest``.

Each generated attribute draws from its **own named stream** — the
population analogue of :meth:`repro.netsim.simulator.Simulator.
spawn_named_rng` — seeded as ``default_rng((seed, *name))``.  Streams are
pure functions of ``(seed, name)``, so generation is deterministic *and*
order-independent: adding a new attribute (or a noise layer) never shifts
the draws of existing ones, and two fleets generated attribute-by-attribute
or client-by-client come out identical.

Degenerate specs consume **no randomness at all**: a single-entry client
mix assigns the type without a draw, ``poll_jitter == 0`` pins every
multiplier to exactly ``1.0``, and a static churn spec pins every join to
``t = 0`` — which is what lets a zero-noise single-client fleet reproduce
the single-victim golden scenario bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.population.spec import NoiseLayer, PopulationSpec

#: Leaves are clamped to at least this long after the client's own join, so
#: a churned client always boots before it stops.
MIN_LIFETIME = 64.0


def _stream(seed: int, name: str) -> np.random.Generator:
    """The named generation stream for one attribute."""
    return np.random.default_rng((seed, *f"population:{name}".encode("utf-8")))


@dataclass(frozen=True)
class ClientManifest:
    """One concrete client realised from a spec."""

    index: int
    client_type: str
    poll_multiplier: float
    initial_clock_offset: float
    join_time: float
    leave_time: Optional[float]
    link_profile: str
    fault_regime: str


@dataclass(frozen=True)
class FleetManifest:
    """The realised fleet: what :mod:`repro.population.fleet` simulates."""

    seed: int
    spec_digest: str
    clients: tuple[ClientManifest, ...]

    @property
    def size(self) -> int:
        return len(self.clients)

    def type_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for client in self.clients:
            counts[client.client_type] = counts.get(client.client_type, 0) + 1
        return counts


def _draw_mix(
    mix: dict[str, float], n: int, stream_seed: int, stream_name: str
) -> list[str]:
    """Assign each of ``n`` clients a category from a weighted mix.

    A single-entry mix assigns directly (no stream consumed), keeping
    degenerate specs draw-free.
    """
    names = list(mix)
    if len(names) == 1:
        return [names[0]] * n
    weights = np.asarray([mix[name] for name in names], dtype=float)
    weights = weights / weights.sum()
    picks = _stream(stream_seed, stream_name).choice(len(names), size=n, p=weights)
    return [names[int(pick)] for pick in picks]


def _noise_draws(layer: NoiseLayer, ordinal: int, seed: int, n: int) -> np.ndarray:
    stream = _stream(seed, f"noise:{layer.attribute}:{ordinal}")
    if layer.kind == "uniform":
        return stream.uniform(-layer.scale, layer.scale, size=n)
    if layer.kind == "normal":
        return stream.normal(0.0, layer.scale, size=n)
    # lognormal: returned as exp(N(0, scale)) - 1 so that "no noise" is 0,
    # matching the additive convention of the other kinds.
    return np.exp(stream.normal(0.0, layer.scale, size=n)) - 1.0


def generate_fleet(spec: PopulationSpec, seed: int) -> FleetManifest:
    """Realise ``spec`` into concrete per-client manifests, deterministically."""
    n = spec.size
    types = _draw_mix(spec.effective_client_mix(), n, seed, "client_type")
    links = _draw_mix(dict(spec.link_mix), n, seed, "link_profile")
    faults = _draw_mix(dict(spec.fault_mix), n, seed, "fault_regime")

    if spec.poll_jitter == 0.0:
        multipliers = np.ones(n)
    else:
        multipliers = _stream(seed, "poll_interval").uniform(
            1.0 - spec.poll_jitter, 1.0 + spec.poll_jitter, size=n
        )
    offsets = np.zeros(n)

    churn = spec.churn
    join_times = np.zeros(n)
    if churn.late_join_fraction > 0.0:
        join_stream = _stream(seed, "churn_join")
        late = join_stream.uniform(size=n) < churn.late_join_fraction
        join_times = np.where(
            late, join_stream.uniform(0.0, churn.join_window, size=n), 0.0
        )
    leave_times: Optional[np.ndarray] = None
    if churn.leave_fraction > 0.0:
        leave_stream = _stream(seed, "churn_leave")
        leaves = leave_stream.uniform(size=n) < churn.leave_fraction
        raw = churn.leave_after + leave_stream.uniform(
            0.0, churn.leave_window, size=n
        )
        leave_times = np.where(leaves, raw, np.nan)

    for ordinal, layer in enumerate(spec.noise_layers):
        if layer.scale == 0.0:
            continue
        draws = _noise_draws(layer, ordinal, seed, n)
        if layer.attribute == "initial_clock_offset":
            offsets = offsets + draws
        else:  # join_time
            join_times = np.maximum(0.0, join_times + draws)

    clients = []
    for index in range(n):
        join = float(join_times[index])
        leave: Optional[float] = None
        if leave_times is not None and not np.isnan(leave_times[index]):
            leave = max(float(leave_times[index]), join + MIN_LIFETIME)
        clients.append(
            ClientManifest(
                index=index,
                client_type=types[index],
                poll_multiplier=float(multipliers[index]),
                initial_clock_offset=float(offsets[index]),
                join_time=join,
                leave_time=leave,
                link_profile=links[index],
                fault_regime=faults[index],
            )
        )
    return FleetManifest(
        seed=seed, spec_digest=spec.digest(), clients=tuple(clients)
    )


__all__ = ["ClientManifest", "FleetManifest", "MIN_LIFETIME", "generate_fleet"]
