"""Deterministic fault injection: realistic link pathologies, seeded.

The paper's off-path attacks (fragmentation poisoning, IPID prediction,
rate-limit abuse) succeed or fail depending on *real-network* pathologies —
bursty loss, reordering, duplication, corruption, transient partitions —
yet the base simulator models only i.i.d. per-link loss.  This module adds
composable, seeded per-link fault models so experiments can sweep attack
success against fault regimes while staying bit-for-bit reproducible:

* :class:`GilbertElliott` — the classic two-state bursty-loss chain (a
  *good* and a *bad* state with independent loss rates and per-packet
  transition probabilities), the standard model for correlated loss.
* :class:`ReorderJitter` — with some probability a packet picks up extra
  uniform delay, overtaking later traffic (reordering at the receiver).
* :class:`Duplication` — with some probability a packet is delivered
  twice (the duplicate may carry its own extra delay).
* :class:`Corruption` — with some probability one bit of the packet
  payload is flipped.  Corrupted packets are **not** silently dropped:
  they travel the normal delivery path and must be caught by the real
  UDP checksum verify on delivery, where they count
  as derived ``udp_checksum_failures`` exactly like any other damaged
  datagram.  On links/hosts that skip verification the corruption is
  delivered — trust means trusting the fabric.
* :class:`Partition` — a scheduled blackhole window ``[start, start +
  duration)`` after which the link heals; every packet inside the window
  is dropped deterministically.
* :class:`LatencySpike` — a scheduled window adding constant extra
  latency (a congestion episode / route flap).

Components compose into a :class:`FaultPlan` attached to a link via
:meth:`repro.netsim.network.Network.set_link_faults`.  Determinism and
graceful degradation are the two design rules:

* **Determinism.**  Every random draw comes from a dedicated stream the
  owning :class:`~repro.netsim.network.Network` derives per *directed*
  address pair via :meth:`repro.netsim.simulator.Simulator.spawn_named_rng`
  — the stream is a pure function of the simulation seed and the pair, so
  attaching a fault plan never perturbs any other component's draws, and
  channel state survives pipeline-cache invalidation (the
  :class:`FaultChannel` is owned by the network, not the compiled
  pipeline).
* **Graceful degradation.**  A component with zero probability (or an
  empty window) is *inert* and is dropped when the plan is attached; a
  plan whose every component is inert compiles to nothing at all, so the
  link keeps the compiled ``DeliveryPipeline`` / ``DatagramBatch`` fast
  paths and a zero-fault configuration is bit-identical to a fault-free
  one (property-pinned).  An active plan takes the pair off the
  coalesced fast path onto the event-for-event-equivalent slow path:
  same base-loss draws from the network RNG in the same order, same
  heap-entry scheduling, with fault decisions layered on top from the
  channel's own stream.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping, Optional

from repro.netsim.errors import FaultConfigError
from repro.netsim.packet import IPv4Packet
from repro.netsim.udp import UDP_HEADER_LEN


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultConfigError(f"{name} must be a probability in [0, 1], got {value}")


def _check_non_negative(name: str, value: float) -> None:
    if value < 0.0:
        raise FaultConfigError(f"{name} must be >= 0, got {value}")


# --------------------------------------------------------------- components
@dataclass(frozen=True)
class GilbertElliott:
    """Two-state bursty loss: per-packet Markov chain over {good, bad}.

    ``p_enter_bad`` is the good→bad transition probability per packet,
    ``p_exit_bad`` the bad→good probability; ``loss_good`` / ``loss_bad``
    are the per-state loss rates.  The chain starts in the good state.
    The textbook Gilbert model is ``loss_good=0, loss_bad=1``.
    """

    p_enter_bad: float = 0.0
    p_exit_bad: float = 0.5
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        _check_probability("p_enter_bad", self.p_enter_bad)
        _check_probability("p_exit_bad", self.p_exit_bad)
        _check_probability("loss_good", self.loss_good)
        _check_probability("loss_bad", self.loss_bad)

    @property
    def active(self) -> bool:
        """False when the chain can never drop a packet."""
        return self.loss_good > 0.0 or (self.p_enter_bad > 0.0 and self.loss_bad > 0.0)


@dataclass(frozen=True)
class ReorderJitter:
    """With ``probability``, add uniform extra delay in ``(0, max_delay)``.

    Jittered packets arrive after traffic sent later on the same link —
    reordering as the receiver observes it.
    """

    probability: float = 0.0
    max_delay: float = 0.05

    def __post_init__(self) -> None:
        _check_probability("probability", self.probability)
        _check_non_negative("max_delay", self.max_delay)

    @property
    def active(self) -> bool:
        return self.probability > 0.0 and self.max_delay > 0.0


@dataclass(frozen=True)
class Duplication:
    """With ``probability``, deliver the packet twice.

    The duplicate is scheduled after the original (same instant plus
    uniform extra delay up to ``max_delay``), mirroring how duplicated
    datagrams trail their originals on real paths.
    """

    probability: float = 0.0
    max_delay: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("probability", self.probability)
        _check_non_negative("max_delay", self.max_delay)

    @property
    def active(self) -> bool:
        return self.probability > 0.0


@dataclass(frozen=True)
class Corruption:
    """With ``probability``, flip one payload bit of the packet.

    The flipped bit lands in the datagram *body* (past the 8-byte UDP
    header) whenever the payload has one, so a single flip is always
    detectable by the RFC 768 checksum — header-only payloads flip
    within the header instead.  Detection is left entirely to the real
    delivery path: the checksum verify rejects the packet and counts a
    derived ``udp_checksum_failures``;
    non-verifying links and hosts deliver the damage.  Empty payloads
    pass through untouched.
    """

    probability: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("probability", self.probability)

    @property
    def active(self) -> bool:
        return self.probability > 0.0


@dataclass(frozen=True)
class Partition:
    """Scheduled blackhole: drop everything in ``[start, start+duration)``.

    ``start + duration`` is the heal time; traffic at or after it flows
    again.  Deterministic — no randomness is drawn for partitions.
    """

    start: float = 0.0
    duration: float = 0.0

    def __post_init__(self) -> None:
        _check_non_negative("start", self.start)
        _check_non_negative("duration", self.duration)

    @property
    def end(self) -> float:
        """First instant at which the link is healed again."""
        return self.start + self.duration

    @property
    def active(self) -> bool:
        return self.duration > 0.0

    def covers(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class LatencySpike:
    """Scheduled congestion episode: constant ``extra`` latency in a window."""

    start: float = 0.0
    duration: float = 0.0
    extra: float = 0.0

    def __post_init__(self) -> None:
        _check_non_negative("start", self.start)
        _check_non_negative("duration", self.duration)
        _check_non_negative("extra", self.extra)

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def active(self) -> bool:
        return self.duration > 0.0 and self.extra > 0.0

    def covers(self, now: float) -> bool:
        return self.start <= now < self.end


_COMPONENT_TYPES = (
    GilbertElliott,
    ReorderJitter,
    Duplication,
    Corruption,
    Partition,
    LatencySpike,
)


# --------------------------------------------------------------------- plan
class FaultPlan:
    """A composition of fault components applied to one link.

    Components are grouped by kind and applied per packet in a fixed
    order — partitions, bursty loss, corruption, latency (spikes then
    jitter), duplication — so a plan's behaviour does not depend on the
    order components were listed.  Inert components (zero probability,
    empty windows) are discarded at construction; a plan with nothing
    left (:attr:`is_inert`) never leaves the compiled fast path.
    """

    __slots__ = (
        "partitions",
        "loss_models",
        "corruptions",
        "spikes",
        "jitters",
        "duplications",
    )

    def __init__(self, *components) -> None:
        partitions: list[Partition] = []
        loss_models: list[GilbertElliott] = []
        corruptions: list[Corruption] = []
        spikes: list[LatencySpike] = []
        jitters: list[ReorderJitter] = []
        duplications: list[Duplication] = []
        for component in components:
            if not isinstance(component, _COMPONENT_TYPES):
                raise FaultConfigError(
                    f"not a fault component: {component!r} "
                    f"(expected one of {[t.__name__ for t in _COMPONENT_TYPES]})"
                )
            if not component.active:
                continue  # inert: zero probability / empty window
            if isinstance(component, Partition):
                partitions.append(component)
            elif isinstance(component, GilbertElliott):
                loss_models.append(component)
            elif isinstance(component, Corruption):
                corruptions.append(component)
            elif isinstance(component, LatencySpike):
                spikes.append(component)
            elif isinstance(component, ReorderJitter):
                jitters.append(component)
            else:
                duplications.append(component)
        self.partitions = tuple(partitions)
        self.loss_models = tuple(loss_models)
        self.corruptions = tuple(corruptions)
        self.spikes = tuple(spikes)
        self.jitters = tuple(jitters)
        self.duplications = tuple(duplications)

    @property
    def is_inert(self) -> bool:
        """True when no component can ever alter a packet.

        Inert plans are never compiled into a pipeline: the link keeps
        the exact fast paths (and RNG behaviour) of a fault-free link.
        """
        return not (
            self.partitions
            or self.loss_models
            or self.corruptions
            or self.spikes
            or self.jitters
            or self.duplications
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        for name in self.__slots__:
            values = getattr(self, name)
            if values:
                parts.append(f"{name}={list(values)!r}")
        return f"<FaultPlan {' '.join(parts) or 'inert'}>"


@dataclass(slots=True)
class FaultStats:
    """Counters for one channel (aggregated network-wide by
    :meth:`repro.netsim.network.Network.fault_stats`)."""

    packets: int = 0
    dropped_partition: int = 0
    dropped_loss: int = 0
    corrupted: int = 0
    duplicated: int = 0
    reordered: int = 0
    spike_delayed: int = 0

    @property
    def dropped(self) -> int:
        """All fault-induced drops (partitions plus bursty loss)."""
        return self.dropped_partition + self.dropped_loss

    def merge(self, other: "FaultStats") -> None:
        self.packets += other.packets
        self.dropped_partition += other.dropped_partition
        self.dropped_loss += other.dropped_loss
        self.corrupted += other.corrupted
        self.duplicated += other.duplicated
        self.reordered += other.reordered
        self.spike_delayed += other.spike_delayed

    def to_document(self) -> dict[str, int]:
        """JSON-safe counter document (field names, no derived values)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_document(cls, document: Mapping[str, Any]) -> "FaultStats":
        known = {f.name for f in fields(cls)}
        return cls(**{k: int(v) for k, v in document.items() if k in known})


# ------------------------------------------------------------------ channel
class FaultChannel:
    """Per-directed-pair fault state: the slow path behind a faulted link.

    Owned by the network (``Network._fault_channels``), *not* by the
    compiled pipeline — pipeline caches are cleared wholesale on topology
    edits, and rebuilding a channel there would silently reset the
    Gilbert–Elliott state and rewind the RNG stream.  The channel's RNG
    is a named stream derived from the simulation seed and the directed
    pair, so two channels never share draws and creation order is
    irrelevant.
    """

    __slots__ = ("plan", "stats", "_rng", "_bad_states")

    def __init__(self, plan: FaultPlan, rng) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self._rng = rng
        #: One chain state per GilbertElliott component (all start good).
        self._bad_states = [False] * len(plan.loss_models)

    def process(self, packet: IPv4Packet, now: float) -> list:
        """Run one packet through the plan.

        Returns a list of ``(extra_delay, packet)`` deliveries: empty when
        the packet was dropped, one entry normally, two when duplicated.
        The packet in an entry is the original object unless corruption
        fired, in which case it is a flipped *copy* (the sender's object
        is never mutated).  All randomness comes from the channel stream;
        the caller has already applied the link's base loss from the
        network RNG, keeping base draws identical to a fault-free run.
        """
        stats = self.stats
        stats.packets += 1
        plan = self.plan
        for window in plan.partitions:
            if window.start <= now < window.end:
                stats.dropped_partition += 1
                return []
        random = self._rng.random
        if plan.loss_models:
            bad_states = self._bad_states
            for index, model in enumerate(plan.loss_models):
                bad = bad_states[index]
                # Advance the chain first (per-packet transition), then
                # draw the state's loss.  Certain/impossible loss skips
                # the loss draw so zero-loss states cost one draw only.
                if bad:
                    if model.p_exit_bad > 0.0 and random() < model.p_exit_bad:
                        bad = False
                elif model.p_enter_bad > 0.0 and random() < model.p_enter_bad:
                    bad = True
                bad_states[index] = bad
                loss = model.loss_bad if bad else model.loss_good
                if loss >= 1.0 or (loss > 0.0 and random() < loss):
                    stats.dropped_loss += 1
                    return []
        for corruption in plan.corruptions:
            if random() < corruption.probability:
                flipped = self._flip_bit(packet)
                if flipped is not None:
                    packet = flipped
                    stats.corrupted += 1
        extra = 0.0
        for spike in plan.spikes:
            if spike.start <= now < spike.end:
                extra += spike.extra
                stats.spike_delayed += 1
        for jitter in plan.jitters:
            if random() < jitter.probability:
                extra += random() * jitter.max_delay
                stats.reordered += 1
        deliveries = [(extra, packet)]
        for duplication in plan.duplications:
            if random() < duplication.probability:
                dup_extra = extra
                if duplication.max_delay > 0.0:
                    dup_extra += random() * duplication.max_delay
                deliveries.append((dup_extra, packet))
                stats.duplicated += 1
        return deliveries

    def _flip_bit(self, packet: IPv4Packet) -> Optional[IPv4Packet]:
        """One-bit payload corruption on a copy of the packet.

        The bit lands past the UDP header when the payload has a body
        (guaranteeing the RFC 768 checksum detects the flip — see
        :class:`Corruption`); header-only payloads flip within the
        header; empty payloads cannot be corrupted.
        """
        payload = packet.payload
        size = len(payload)
        if size == 0:
            return None
        first = UDP_HEADER_LEN if size > UDP_HEADER_LEN else 0
        index = first + int(self._rng.integers(0, size - first))
        bit = 1 << int(self._rng.integers(0, 8))
        corrupted = bytearray(payload)
        corrupted[index] ^= bit
        copy = packet.copy(payload=bytes(corrupted))
        copy.metadata["corrupted"] = True  # ground truth for experiments
        return copy


# ----------------------------------------------------------------- schedules
class FaultSchedule:
    """An ordered sequence of fault-regime swaps for one link.

    Each entry is ``(time, components)``: at simulated ``time`` the link's
    fault plan is replaced by a plan composed from ``components`` (an
    empty tuple retires all faults — the link heals).  Times are absolute
    simulator-clock instants, strictly increasing; entries at or before
    "now" apply immediately when the schedule is attached, later entries
    become scheduled events (see :meth:`repro.netsim.network.Network.
    apply_fault_schedule`).  Swaps preserve the pair's accumulated
    :class:`FaultStats` and draw from fresh epoch-tagged named streams,
    so a multi-phase campaign neither zeroes its counters nor rewinds a
    channel's randomness mid-run.

    A schedule whose every entry composes to an inert plan is *inert*
    (:attr:`is_inert`): attaching it does nothing at all, preserving the
    bit-identity of fault-free runs.
    """

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        normalised: list[tuple[float, tuple]] = []
        previous = None
        for entry in entries:
            try:
                time, components = entry
            except (TypeError, ValueError) as exc:
                raise FaultConfigError(
                    f"schedule entries are (time, components) pairs, got {entry!r}"
                ) from exc
            time = float(time)
            _check_non_negative("schedule entry time", time)
            if previous is not None and time <= previous:
                raise FaultConfigError(
                    f"schedule entry times must be strictly increasing, got "
                    f"{time} after {previous}"
                )
            previous = time
            if isinstance(components, FaultPlan):
                raise FaultConfigError(
                    "schedule entries carry loose components (they are "
                    "re-composed per link), not pre-built FaultPlans"
                )
            components = tuple(components)
            FaultPlan(*components)  # validate types now, not at swap time
            normalised.append((time, components))
        self.entries = tuple(normalised)

    @property
    def is_inert(self) -> bool:
        """True when no entry would ever attach an active component."""
        return all(
            FaultPlan(*components).is_inert for _, components in self.entries
        )

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{time:g}s:{len(components)}c" for time, components in self.entries
        )
        return f"<FaultSchedule {parts or 'empty'}>"
