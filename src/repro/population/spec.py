"""Declarative, layered population specifications.

A :class:`PopulationSpec` describes a client fleet the way
``ihmeuw/pseudo_people`` describes a synthetic dataset: a layered config —
market-share mixes, churn schedules, link/fault regime mixes, a resolver
topology — plus per-attribute noise layers, all frozen and hashable so a
spec can key caches and ride inside picklable
:class:`~repro.experiments.runner.RunSpec` parameters (as canonical JSON).

Every spec here, and :class:`~repro.population.chaos.ChaosPlan`, shares
one codec, :class:`Declarative`: fields become a dict (tuples become
lists), :meth:`~Declarative.from_dict` rebuilds nested specs from the
type hints, and :meth:`~Declarative.from_json` is memoised on the exact
string, so every cell of a landscape or campaign chunk parses its base
spec once.  The canonical JSON and its :meth:`~Declarative.digest` key
every stored fleet, landscape cell and chaos checkpoint.  The default
client mix comes from the paper-reported marginals in
:mod:`repro.measurement.population` — the documented single source of
default shares (a cross-check test keeps the per-class
``pool_usage_share`` attributes in sync with it).

Nothing here touches a simulator: realising a spec into concrete clients
is :mod:`repro.population.generate`'s job.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import (
    Any,
    ClassVar,
    Iterable,
    Mapping,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.measurement.population import default_client_mix

#: Attributes noise layers may perturb (see :mod:`repro.population.generate`).
NOISE_ATTRIBUTES = ("initial_clock_offset", "join_time")
#: Supported noise distributions.
NOISE_KINDS = ("uniform", "normal", "lognormal")
#: Supported fault-regime kinds (mapped onto :mod:`repro.netsim.faults`).
FAULT_KINDS = (
    "clean",
    "bursty_loss",
    "jitter",
    "duplication",
    "corruption",
    "partition",
    "latency_spike",
)
#: Kinds driven by a scheduled window rather than a per-packet probability.
WINDOWED_FAULT_KINDS = ("partition", "latency_spike")

#: A weighted mix: ``((name, weight), ...)`` in declaration order.
Mix = tuple[tuple[str, float], ...]


class SpecError(ValueError):
    """A population spec is internally inconsistent or unloadable."""


def _as_mix(value: Any, what: str, error: type[SpecError] = SpecError) -> Mix:
    """Coerce a mapping / pair-sequence into a validated ``Mix`` tuple."""
    if isinstance(value, Mapping):
        pairs = list(value.items())
    else:
        try:
            pairs = [(name, weight) for name, weight in value]
        except (TypeError, ValueError) as exc:
            raise error(
                f"{what} must be a mapping or (name, weight) pairs: {value!r}"
            ) from exc
    if not pairs:
        raise error(f"{what} must not be empty")
    mix = []
    seen = set()
    for name, weight in pairs:
        name = str(name)
        weight = float(weight)
        if name in seen:
            raise error(f"{what} lists {name!r} twice")
        if weight < 0:
            raise error(f"{what} weight for {name!r} is negative: {weight}")
        seen.add(name)
        mix.append((name, weight))
    if not any(weight for _, weight in mix):
        raise error(f"{what} weights sum to zero")
    return tuple(mix)


def _encode(value: Any) -> Any:
    if isinstance(value, Declarative):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def _decode(hint: Any, value: Any) -> Any:
    """Rebuild the nested specs of one field; pass every other value on to
    the owning class's ``__post_init__``, which coerces and validates it."""
    if isinstance(hint, type) and issubclass(hint, Declarative):
        return hint.from_dict(value)
    args = get_args(hint)
    if get_origin(hint) is tuple and args[-1] is Ellipsis:
        return tuple(_decode(args[0], item) for item in value)
    return value


class Declarative:
    """The canonical codec of a frozen declarative dataclass.

    Subclasses may set :attr:`label` (the noun in load errors; the class
    name by default) and :attr:`error` (the exception they raise).
    """

    label: ClassVar[str] = ""
    error: ClassVar[type[SpecError]] = SpecError

    def to_dict(self) -> dict[str, Any]:
        return _encode(self)

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]):
        what = cls.label or cls.__name__
        if not isinstance(document, Mapping):
            raise cls.error(f"{what} must be an object, got {document!r}")
        unknown = set(document) - {f.name for f in fields(cls)}
        if unknown:
            raise cls.error(f"unknown {what} fields: {sorted(unknown)}")
        hints = get_type_hints(cls)
        return cls(
            **{name: _decode(hints[name], value) for name, value in document.items()}
        )

    def to_json(self) -> str:
        """Canonical JSON (sorted keys) — the form carried in run specs."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    @lru_cache(maxsize=64)
    def from_json(cls, text: str):
        """Parse a canonical JSON string, memoised on the exact string."""
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            what = cls.label or cls.__name__
            raise cls.error(f"{what} is not valid JSON: {exc}") from exc
        return cls.from_dict(document)

    def digest(self) -> str:
        """Content hash of the canonical serialisation (stable across runs)."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class NoiseLayer(Declarative):
    """One seeded perturbation of a generated attribute.

    Noise applies additively (join times clipped at zero).  Layers stack
    in declaration order, each drawing from its own named stream.
    """

    attribute: str
    kind: str = "uniform"
    scale: float = 0.0

    def __post_init__(self) -> None:
        if self.attribute not in NOISE_ATTRIBUTES:
            raise SpecError(
                f"unknown noise attribute {self.attribute!r}; "
                f"expected one of {NOISE_ATTRIBUTES}"
            )
        if self.kind not in NOISE_KINDS:
            raise SpecError(
                f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}"
            )
        if self.scale < 0:
            raise SpecError(f"noise scale must be >= 0, got {self.scale}")


@dataclass(frozen=True)
class ChurnSpec(Declarative):
    """Join/leave schedule shape; the all-zero default is a static fleet."""

    #: Fraction of clients that boot after t=0 (uniform over ``join_window``).
    late_join_fraction: float = 0.0
    join_window: float = 600.0
    #: Fraction of clients that stop mid-run.
    leave_fraction: float = 0.0
    #: Leaves happen at ``leave_after + U(0, leave_window)`` (clamped to
    #: strictly after the client's own join).
    leave_after: float = 1800.0
    leave_window: float = 600.0

    def __post_init__(self) -> None:
        for name in ("late_join_fraction", "leave_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SpecError(f"{name} must be in [0, 1], got {value}")
        for name in ("join_window", "leave_after", "leave_window"):
            if getattr(self, name) < 0:
                raise SpecError(f"{name} must be >= 0")


@dataclass(frozen=True)
class LinkProfileSpec(Declarative):
    """Latency/loss class for a slice of the population's access links."""

    name: str
    latency: float = 0.01
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise SpecError(f"link latency must be >= 0, got {self.latency}")
        if not 0.0 <= self.loss < 1.0:
            raise SpecError(f"link loss must be in [0, 1), got {self.loss}")


#: Built-in link classes; ``default`` means "leave the testbed link alone"
#: (which preserves the compiled fault-free fast paths exactly).
BUILTIN_LINK_PROFILES: dict[str, LinkProfileSpec] = {
    "default": LinkProfileSpec("default"),
    "broadband": LinkProfileSpec("broadband", latency=0.02),
    "mobile": LinkProfileSpec("mobile", latency=0.06, loss=0.01),
    "satellite": LinkProfileSpec("satellite", latency=0.3, loss=0.005),
}


@dataclass(frozen=True)
class FaultRegimeSpec(Declarative):
    """Named fault environment mapped onto :mod:`repro.netsim.faults`.

    ``clean`` attaches nothing (fault-free fast paths); ``bursty_loss``
    becomes a Gilbert–Elliott channel entering its bad state with
    ``probability`` and dropping with ``magnitude`` (default 0.8);
    ``jitter`` becomes reorder jitter with ``probability`` and max extra
    delay ``magnitude`` (default 0.2 s); ``duplication`` duplicates with
    ``probability``; ``corruption`` flips one payload bit with
    ``probability`` (caught by the real checksum-verify paths).

    The windowed kinds (:data:`WINDOWED_FAULT_KINDS`) are scheduled, not
    probabilistic: ``partition`` blackholes the link for ``[start,
    start + duration)``; ``latency_spike`` adds ``magnitude`` seconds
    (default 0.25) of extra latency over the same window.  In a fleet
    spec the window is on the simulator clock; inside a chaos phase
    (:mod:`repro.population.chaos`) ``start`` is an offset into the phase
    and ``duration == 0`` means "the rest of the phase".
    """

    name: str
    kind: str = "clean"
    probability: float = 0.0
    magnitude: float = 0.0
    start: float = 0.0
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise SpecError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise SpecError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.magnitude < 0:
            raise SpecError(f"fault magnitude must be >= 0, got {self.magnitude}")
        if self.start < 0 or self.duration < 0:
            raise SpecError(
                f"fault window must be >= 0, got start={self.start} "
                f"duration={self.duration}"
            )


#: Built-in fault regimes usable in ``fault_mix`` without declaring them.
BUILTIN_FAULT_REGIMES: dict[str, FaultRegimeSpec] = {
    "clean": FaultRegimeSpec("clean"),
    "bursty": FaultRegimeSpec("bursty", kind="bursty_loss", probability=0.05),
    "jittery": FaultRegimeSpec("jittery", kind="jitter", probability=0.1),
}


def regime_table(declared: Iterable[FaultRegimeSpec]) -> dict[str, FaultRegimeSpec]:
    """Built-in fault regimes overlaid with a spec's or plan's declarations."""
    table = dict(BUILTIN_FAULT_REGIMES)
    table.update({regime.name: regime for regime in declared})
    return table


@dataclass(frozen=True)
class ResolverTopology(Declarative):
    """Resolver-side posture shared by the whole fleet.

    ``drops_fragments`` makes the resolver immune to the fragment attack,
    so :func:`~repro.population.fleet.run_fleet` plants no poisoned
    records into it.  ``validates_dnssec`` changes no result: the pool
    domain is unsigned.
    """

    validates_dnssec: bool = False
    drops_fragments: bool = False


def _default_client_mix() -> Mix:
    return tuple(default_client_mix().items())


@dataclass(frozen=True)
class PopulationSpec(Declarative):
    """The full layered description of one simulated client population.

    Every field is declarative — a spec never references live simulator
    objects — and the whole structure is frozen/hashable, so specs key
    caches directly and serialise canonically (:meth:`to_json`,
    :meth:`digest`).  Generation (:func:`repro.population.generate.
    generate_fleet`) is a pure function of ``(spec, seed)``.
    """

    label = "population spec"

    size: int = 1
    #: Client-type market shares over :data:`repro.ntp.clients.
    #: CLIENT_REGISTRY` names; defaults to the renormalised paper marginals.
    client_mix: Mix = field(default_factory=_default_client_mix)
    #: Half-width of the uniform per-client poll-interval multiplier
    #: (0 = every client polls at its model's default cadence).
    poll_jitter: float = 0.0
    churn: ChurnSpec = ChurnSpec()
    link_mix: Mix = (("default", 1.0),)
    link_profiles: tuple[LinkProfileSpec, ...] = ()
    fault_mix: Mix = (("clean", 1.0),)
    fault_regimes: tuple[FaultRegimeSpec, ...] = ()
    resolver: ResolverTopology = ResolverTopology()
    noise_layers: tuple[NoiseLayer, ...] = ()
    pool_size: int = 48
    pool_rate_limit_fraction: float = 1.0
    attack: str = "P1"
    warmup_seconds: float = 1500.0
    max_duration_hours: float = 3.0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise SpecError(f"population size must be >= 1, got {self.size}")
        if self.pool_size < 1:
            raise SpecError(f"pool_size must be >= 1, got {self.pool_size}")
        if not 0.0 <= self.pool_rate_limit_fraction <= 1.0:
            raise SpecError(
                "pool_rate_limit_fraction must be in [0, 1], got "
                f"{self.pool_rate_limit_fraction}"
            )
        if self.attack not in ("P1", "P2"):
            raise SpecError(f"attack must be 'P1' or 'P2', got {self.attack!r}")
        if not 0.0 <= self.poll_jitter < 1.0:
            raise SpecError(f"poll_jitter must be in [0, 1), got {self.poll_jitter}")
        if self.warmup_seconds < 0 or self.max_duration_hours <= 0:
            raise SpecError("warmup_seconds must be >= 0 and max_duration_hours > 0")
        object.__setattr__(self, "client_mix", _as_mix(self.client_mix, "client_mix"))
        object.__setattr__(self, "link_mix", _as_mix(self.link_mix, "link_mix"))
        object.__setattr__(self, "fault_mix", _as_mix(self.fault_mix, "fault_mix"))
        object.__setattr__(self, "link_profiles", tuple(self.link_profiles))
        object.__setattr__(self, "fault_regimes", tuple(self.fault_regimes))
        object.__setattr__(self, "noise_layers", tuple(self.noise_layers))
        from repro.ntp.clients import CLIENT_REGISTRY

        for name, _weight in self.client_mix:
            if name not in CLIENT_REGISTRY:
                known = ", ".join(sorted(CLIENT_REGISTRY))
                raise SpecError(
                    f"unknown client type {name!r} in client_mix; known: {known}"
                )
        profiles = self.link_profile_table()
        for name, _weight in self.link_mix:
            if name not in profiles:
                raise SpecError(f"link_mix references undeclared profile {name!r}")
        regimes = regime_table(self.fault_regimes)
        for name, _weight in self.fault_mix:
            if name not in regimes:
                raise SpecError(f"fault_mix references undeclared regime {name!r}")

    # --------------------------------------------------------------- lookups
    def effective_client_mix(self) -> dict[str, float]:
        """Client shares renormalised into a probability distribution."""
        total = sum(weight for _, weight in self.client_mix)
        return {name: weight / total for name, weight in self.client_mix}

    def link_profile_table(self) -> dict[str, LinkProfileSpec]:
        """Built-in link profiles overlaid with the spec's own declarations."""
        table = dict(BUILTIN_LINK_PROFILES)
        table.update({profile.name: profile for profile in self.link_profiles})
        return table


__all__ = [
    "BUILTIN_FAULT_REGIMES",
    "BUILTIN_LINK_PROFILES",
    "ChurnSpec",
    "Declarative",
    "FAULT_KINDS",
    "WINDOWED_FAULT_KINDS",
    "FaultRegimeSpec",
    "LinkProfileSpec",
    "Mix",
    "NOISE_ATTRIBUTES",
    "NOISE_KINDS",
    "NoiseLayer",
    "PopulationSpec",
    "ResolverTopology",
    "SpecError",
    "regime_table",
]
