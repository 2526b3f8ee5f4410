"""Discrete-event simulation core.

A single :class:`Simulator` instance drives every experiment: hosts, links,
DNS resolvers, NTP clients, attackers and measurement scanners all schedule
callbacks on the same virtual clock.  Time is a float measured in seconds.

The event loop is deliberately small and tuned for throughput.  The heap
holds plain tuples so that ordering comparisons run at C speed inside
:mod:`heapq` (floats and ints, never ``Event`` objects); two entry shapes
coexist:

* ``(time, sequence, event, _EVENT)`` — cancellable events returned by
  :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`.  ``Event`` is a
  ``__slots__`` class rather than a dataclass so creating one costs a single
  small allocation.
* ``(time, sequence, callback, arg)`` — anonymous fire-and-forget events
  created by :meth:`Simulator.post`, carrying zero or one callback argument
  (``arg`` is the ``_NO_ARG`` sentinel when there is none).  These skip the
  ``Event`` allocation entirely and exist for the per-packet delivery path,
  which schedules millions of events per experiment and never cancels one.
* ``(time, sequence, burst, _BURST)`` — *burst* entries created by
  :meth:`Simulator.post_burst_entry` (or pushed directly by the network's
  datagram-batch sends).  One heap entry stands for ``burst.count``
  logical events firing at the same instant: the entry consumes ``count``
  contiguous sequence numbers at creation and counts ``count`` towards
  ``events_processed`` when drained, so a batch of N datagrams
  costs one heap push and one pop instead of N — while remaining
  event-for-event equivalent (ordering, counters, :meth:`pending`) to N
  singular posts.  Bursts are atomic: ``run(max_events=...)`` never splits
  one, and :meth:`step` executes a whole burst as one step.

The fourth element doubles as the discriminator (identity-compared
sentinels), so the dispatch loop needs pointer comparisons, not isinstance
checks, and posted callbacks are invoked with a fixed-arity call instead of
argument-tuple unpacking.  Sequence numbers are unique, so tuple comparison
never reaches the third element.  The monotonically increasing sequence
number makes ordering of same-time events deterministic (first scheduled,
first executed); a burst orders by its *first* sequence number, which is
exactly where its N singular events would have sorted, because the block
is allocated atomically.  All randomness in the simulation flows through
the simulator's seeded ``numpy.random.Generator`` so runs are reproducible
bit-for-bit.

The hot loop of :meth:`Simulator.run` drains contiguous *equal-timestamp*
runs through a coalesced inner loop: once the head event at time ``t``
passed the ``until`` bound, every further entry at exactly ``t`` is popped and
dispatched without re-checking the bound or re-writing the clock.
Cancelled events popped inside a coalesced run are skipped without
touching ``events_processed`` (their cancellation was already counted by
:meth:`Event.cancel`), so :meth:`Simulator.pending` stays exact.

Cancellation bookkeeping: cancelled events stay in the heap (removing an
arbitrary heap entry is O(n)) and are skipped when popped, but
:meth:`Event.cancel` bumps the simulator's cancelled-event counter at cancel
time, so :meth:`Simulator.pending` (``scheduled - executed - cancelled``)
reports the number of events that will actually fire — not the raw heap
size.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Callable, Optional

import numpy as np

from repro.netsim.burst import DatagramBatch
from repro.netsim.datapath import HostDatapath
from repro.netsim.errors import InvariantViolation, SimulationError
from repro.perf import STAGES, perf_counter

#: Heap-entry discriminator: fourth tuple element of cancellable entries.
_EVENT = object()
#: Sentinel for "posted callback takes no argument".
_NO_ARG = object()
#: Heap-entry discriminator for burst entries (see module docstring).  The
#: network's batched transmit path pushes these directly (friend access,
#: mirroring its inlined ``post``), so the sentinel is shared, not private
#: to the loop.
_BURST = object()


class Event:
    """A scheduled callback.

    Events order by ``(time, sequence)``: chronological, and within the same
    instant, in scheduling order.  ``args`` (when non-empty) are passed to
    the callback positionally, which lets hot paths such as packet delivery
    schedule a bound method plus its argument instead of building a fresh
    closure per packet.
    """

    __slots__ = ("time", "sequence", "callback", "args", "label", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[..., None],
        args: tuple = (),
        label: str = "",
        sim: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.label = label
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Mark the event so the loop skips it when popped.

        Also bumps the owning simulator's cancelled-event counter, so
        :meth:`Simulator.pending` stays accurate without the loop having to
        purge the heap.  Cancelling twice — or cancelling an event that has
        already fired, which callbacks that cancel their own timeout event
        routinely do — is a no-op: the loop severs the event's simulator
        reference at dispatch, so a late cancel cannot distort the count.
        """
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._cancelled += 1
                self._sim = None


class Simulator:
    """The discrete-event loop shared by every simulated component.

    Parameters
    ----------
    seed:
        Seed every component's random stream derives from.  Components
        call :meth:`spawn_rng` (or :meth:`spawn_named_rng`) for their own
        stream, so their draws do not perturb each other when the topology
        changes.
    strict:
        Opt-in invariant guards for the chaos/fault-injection suites.  The
        run loops verify heap monotonicity per pop and, on every loop exit,
        the full event/cancellation accounting and the packet laws of the
        networks built on this simulator (:meth:`check_invariants`),
        raising :class:`~repro.netsim.errors.InvariantViolation` on the
        first broken conservation law.  Strict runs dispatch through one
        generic guarded loop — semantics are identical to the fast loops
        (pinned by the strict-equivalence tests), only slower.
    """

    __slots__ = (
        "_queue",
        "_sequence",
        "_cancelled",
        "_now",
        "_seed",
        "_spawned",
        "events_processed",
        "bursts_posted",
        "strict",
        "networks",
    )

    def __init__(self, seed: int = 0, strict: bool = False) -> None:
        # Heap of 4-tuples (see module docstring): tuple comparison keeps
        # heap operations in C and never falls through to the third element
        # because sequence numbers are unique.
        self._queue: list[tuple] = []
        self._sequence = 0
        self._cancelled = 0
        self._now = 0.0
        self._seed = seed
        self._spawned = 0
        self.events_processed = 0
        #: Burst heap entries created so far (post_burst_entry / the
        #: network's datagram batches).  ``events_processed`` already
        #: counts burst members individually; this counter exposes how much
        #: coalescing the run actually achieved.
        self.bursts_posted = 0
        self.strict = strict
        #: Networks built on this simulator (each adds itself); their
        #: packet laws are part of :meth:`check_invariants`.
        self.networks: list = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def spawn_rng(self) -> np.random.Generator:
        """Return an independent random generator derived from the seed.

        Each call returns a new stream; components store their own stream so
        that adding one component does not shift the random draws of another.
        """
        self._spawned += 1
        return np.random.default_rng((self._seed, self._spawned))

    def spawn_named_rng(self, name: str) -> np.random.Generator:
        """An independent generator derived from the seed and a stable name.

        Unlike :meth:`spawn_rng`, this does not consume a slot in the
        spawn sequence: the stream is a pure function of ``(seed, name)``,
        so attaching an optional component (a fault channel, a probe)
        cannot shift the draws of components spawned afterwards — which is
        what lets a zero-fault configuration stay bit-identical to a
        fault-free one.  Distinct names yield independent streams; calling
        twice with one name restarts the same stream.
        """
        return np.random.default_rng((self._seed, *name.encode("utf-8")))

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        label: str = "",
        args: tuple = (),
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be cancelled.  Negative delays
        are rejected because they would break causality.  ``args`` are passed
        to the callback positionally when it fires.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        when = self._now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        # Inline slot assignment instead of Event(...): this is the hottest
        # allocation in the simulator and skipping the __init__ frame is a
        # measurable share of per-event cost.
        event = Event.__new__(Event)
        event.time = when
        event.sequence = sequence
        event.callback = callback
        event.args = args
        event.label = label
        event.cancelled = False
        event._sim = self
        heappush(self._queue, (when, sequence, event, _EVENT))
        return event

    def schedule_at(
        self,
        when: float,
        callback: Callable[..., None],
        label: str = "",
        args: tuple = (),
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} (now is {self._now})"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(when, sequence, callback, args, label, self)
        heappush(self._queue, (when, sequence, event, _EVENT))
        return event

    def post(self, delay: float, callback: Callable[..., None], arg=_NO_ARG) -> None:
        """Schedule a fire-and-forget callback ``delay`` seconds from now.

        The anonymous fast path: no :class:`Event` is allocated, so the
        scheduled callback cannot be cancelled or labelled, and at most one
        positional argument is supported (callbacks needing more state bind
        it or use :meth:`schedule`).  This is what the per-packet delivery
        path uses — it accounts for the bulk of all events in an experiment
        and never cancels one.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._queue, (self._now + delay, sequence, callback, arg))

    def post_burst_entry(self, delay: float, burst) -> None:
        """Schedule a pre-built burst object (``count`` + ``run()`` protocol).

        The entry consumes ``burst.count`` sequence numbers and counts that
        many events when drained; ``burst.run()`` must therefore perform
        exactly ``count`` logical events' worth of work, in a flat loop body
        of its own (the network's datagram batches, the association
        remover's rounds).  That keeps it event-for-event equivalent to
        ``count`` singular :meth:`post` calls — same contiguous
        sequence-number block, same execution order, same
        ``events_processed`` / :meth:`pending` accounting — for one heap
        push and one pop.  Like :meth:`post`, burst members cannot be
        cancelled or labelled; a ``count`` of zero schedules nothing.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        count = burst.count
        if count <= 0:
            return
        sequence = self._sequence
        self._sequence = sequence + count
        self.bursts_posted += 1
        heappush(self._queue, (self._now + delay, sequence, burst, _BURST))

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        Cancelled events linger in the heap until popped, but they are
        excluded from this count: every scheduled entry bumps the sequence
        counter exactly once, so the number of events that will still fire is
        ``scheduled - executed - cancelled``, maintained without touching a
        counter on the per-event hot path.  (Before the fast-path rework this
        reported the raw heap size, silently including cancelled events.)
        """
        return self._sequence - self.events_processed - self._cancelled

    def check_invariants(self) -> None:
        """Verify the simulator's conservation laws, raising on violation.

        Walks the heap and checks, in order:

        * **Causality** — no queued entry's time precedes the clock.
        * **Accounting balance** — every sequence number ever allocated is
          either executed, cancelled, or still live in the heap (bursts
          count ``count`` members):
          ``events_processed + cancelled + live == scheduled``.
        * **Pending consistency** — :meth:`pending` equals the live count
          and is non-negative.

        With networks built on this simulator (they share its heap, so the
        laws are stated over all of them), it also checks:

        * **Packet conservation** — every packet sent was dropped, still
          waits in the heap or reached a host, and each duplicate adds
          one: ``transmitted - dropped + duplicated == delivered +
          queued``.  Deliveries are read off the hosts' counters: UDP
          datagrams accepted or rejected, ICMP messages handled, fragments
          the defragmentation cache took (less the packets reassembled
          from them, which count as datagrams) and fragments a filtering
          host dropped.
        * **Corruption is caught** — every corrupted datagram a verifying
          host received with a checksum set was a checksum failure: no
          host counted one as accepted.

        Cheap enough to call per assertion in tests but O(heap + hosts),
        so the strict loop runs it on loop exit, not per event.  Raises
        :class:`~repro.netsim.errors.InvariantViolation` with the broken
        law spelled out.
        """
        now = self._now
        live = 0
        deliveries = 0  # queued packets and batched datagrams
        deliver = HostDatapath.deliver
        for time_, _sequence, target, arg in self._queue:
            if time_ < now:
                raise InvariantViolation(
                    f"causality broken: queued entry at t={time_} behind clock t={now}"
                )
            if arg is _EVENT:
                if not target.cancelled:
                    live += 1
            elif arg is _BURST:
                count = target.count
                if count <= 0:
                    raise InvariantViolation(
                        f"queued burst entry with non-positive count {count}"
                    )
                live += count
                if target.__class__ is DatagramBatch:
                    deliveries += count
            else:
                live += 1
                if getattr(target, "__func__", None) is deliver:
                    deliveries += 1
        balance = self.events_processed + self._cancelled + live
        if balance != self._sequence:
            raise InvariantViolation(
                "event accounting does not balance: "
                f"processed={self.events_processed} + cancelled={self._cancelled} "
                f"+ live={live} == {balance} != scheduled={self._sequence}"
            )
        queued = self.pending()
        if queued != live or queued < 0:
            raise InvariantViolation(
                f"pending()={queued} disagrees with live heap count {live}"
            )
        if not self.networks:
            return
        sent = delivered = corrupted_accepted = 0
        for network in self.networks:
            sent += (
                network.packets_transmitted
                - network.packets_dropped
                + network.fault_stats().duplicated
            )
            for host in network.hosts():
                stats = host.stats
                defrag = host.defrag.stats
                delivered += (
                    stats.udp_received
                    + stats.udp_checksum_failures
                    + stats.icmp_received
                    + stats.fragments_filtered
                    + defrag.fragments_received
                    - defrag.packets_reassembled
                )
                corrupted_accepted += stats.corrupted_accepted
        if sent != delivered + deliveries:
            raise InvariantViolation(
                "packets not conserved: transmitted - dropped + duplicated = "
                f"{sent} != delivered {delivered} + queued {deliveries}"
            )
        if corrupted_accepted:
            raise InvariantViolation(
                f"{corrupted_accepted} corrupted datagrams passed a checksum verify"
            )

    def step(self) -> Optional[Event]:
        """Process the next event, returning it, or None if the queue is empty.

        Anonymous events posted via :meth:`post` are returned as a freshly
        materialised (already-executed) :class:`Event` so callers can still
        inspect time and callback.  Burst entries are atomic: the whole
        burst executes as one step (counting ``burst.count`` events) and is
        returned as a single materialised Event whose callback is the
        burst's ``run``.
        """
        queue = self._queue
        while queue:
            time_, sequence, target, arg = heappop(queue)
            if self.strict and time_ < self._now:
                raise InvariantViolation(
                    f"heap monotonicity broken: popped t={time_} behind clock t={self._now}"
                )
            if arg is _EVENT:
                event = target
                if event.cancelled:
                    continue
                event._sim = None  # executed: a late cancel() must not count
                self._now = time_
                if event.args:
                    event.callback(*event.args)
                else:
                    event.callback()
                self.events_processed += 1
                return event
            self._now = time_
            if arg is _BURST:
                target.run()
                self.events_processed += target.count
                return Event(time_, sequence, target.run, ())
            if arg is _NO_ARG:
                target()
                call_args: tuple = ()
            else:
                target(arg)
                call_args = (arg,)
            self.events_processed += 1
            return Event(time_, sequence, target, call_args)
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would pass this absolute time.  Events at a
            later time remain queued; the clock is advanced to ``until``.
            ``None`` runs until the queue is empty and leaves the clock at
            the last event.
        max_events:
            Safety valve for tests: stop after this many events.

        Returns the number of events processed by this call (burst entries
        count each of their members).
        """
        if self.strict or STAGES.enabled or max_events is not None:
            # Strict, stage-attributing and event-capped runs share one
            # checked loop; the hot loop below stays free of guards and
            # timing code.
            return self._run_guarded(until, max_events)
        queue = self._queue
        processed = 0
        bound = inf if until is None else until
        # The hot loop: pop-skip-dispatch with a head check against the
        # bound, reconciling the processed counter on exit (a callback
        # reading it mid-run sees the value as of the last run()/step()
        # boundary).  Dispatch is inlined (rather than delegating to step())
        # so runs — every ``run_for`` during warmup and attacks, hundreds of
        # thousands of events per experiment — do not materialise an Event
        # object per anonymous entry just to drop it.  Contiguous
        # equal-timestamp runs drain through a coalesced inner loop: entries
        # at the head's exact time already passed the bound, so only the
        # first event of each instant pays the head peek and bound
        # comparison.  Cancelled events popped inside the coalesced run are
        # skipped without counting (their cancellation is already in
        # ``_cancelled``), keeping pending() exact.
        try:
            while queue:
                head = queue[0]
                if head[3] is _EVENT and head[2].cancelled:
                    heappop(queue)
                    continue
                if head[0] > bound:
                    if bound > self._now:
                        self._now = bound
                    break
                time_, _sequence, target, arg = heappop(queue)
                self._now = time_
                while True:
                    if arg is _EVENT:
                        if not target.cancelled:
                            target._sim = None  # late cancel() is a no-op
                            if target.args:
                                target.callback(*target.args)
                            else:
                                target.callback()
                            processed += 1
                    elif arg is _NO_ARG:
                        target()
                        processed += 1
                    elif arg is _BURST:
                        target.run()
                        processed += target.count
                    else:
                        target(arg)
                        processed += 1
                    if not queue or queue[0][0] != time_:
                        break
                    _time, _sequence, target, arg = heappop(queue)
        finally:
            self.events_processed += processed
        if until is not None and not queue:
            self._now = max(self._now, until)
        return processed

    def _run_guarded(
        self, until: Optional[float], max_events: Optional[int]
    ) -> int:
        """The checked loop of :meth:`run`: strict, timed or event-capped.

        Dispatch semantics are identical to the hot loop.  While
        ``repro.perf.STAGES`` collection is enabled it times every heap pop
        into the ``heap`` stage (a lower bound on event-loop heap work:
        pushes happen inside callbacks and are not attributed); timing never
        feeds the simulation, so instrumented runs stay bit-identical.  With
        ``strict`` it asserts heap monotonicity on every pop and burst
        atomicity on every burst entry, then runs the full
        :meth:`check_invariants` accounting sweep when the loop exits
        cleanly; guards raise
        :class:`~repro.netsim.errors.InvariantViolation`.  Bursts are
        atomic: a burst entry never splits across the ``max_events`` bound,
        so the count may overshoot it by the tail of the last burst.
        """
        queue = self._queue
        strict = self.strict
        timed = STAGES.enabled
        processed = 0
        pops = 0
        t_heap = 0.0
        try:
            while queue:
                if max_events is not None and processed >= max_events:
                    break
                head = queue[0]
                if head[3] is _EVENT and head[2].cancelled:
                    heappop(queue)
                    continue
                if until is not None and head[0] > until:
                    if until > self._now:
                        self._now = until
                    break
                if timed:
                    t0 = perf_counter()
                    time_, _sequence, target, arg = heappop(queue)
                    t_heap += perf_counter() - t0
                    pops += 1
                else:
                    time_, _sequence, target, arg = heappop(queue)
                if strict and time_ < self._now:
                    raise InvariantViolation(
                        f"heap monotonicity broken: popped t={time_} "
                        f"behind clock t={self._now}"
                    )
                self._now = time_
                if arg is _EVENT:
                    target._sim = None  # executed: late cancel() is a no-op
                    if target.args:
                        target.callback(*target.args)
                    else:
                        target.callback()
                    processed += 1
                elif arg is _NO_ARG:
                    target()
                    processed += 1
                elif arg is _BURST:
                    count = target.count
                    if strict and count <= 0:
                        raise InvariantViolation(
                            f"burst entry with non-positive count {count}"
                        )
                    target.run()
                    if strict and target.count != count:
                        raise InvariantViolation(
                            "burst atomicity broken: count changed from "
                            f"{count} to {target.count} during run()"
                        )
                    processed += count
                else:
                    target(arg)
                    processed += 1
        finally:
            self.events_processed += processed
            if pops:
                STAGES.add_many("heap", t_heap, pops)
        if until is not None and not queue:
            self._now = max(self._now, until)
        if strict:
            self.check_invariants()
        return processed

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Run the loop for ``duration`` simulated seconds from now."""
        return self.run(until=self._now + duration, max_events=max_events)

    def advance(self, duration: float) -> None:
        """Advance the clock without processing events (test helper)."""
        if duration < 0:
            raise SimulationError("cannot advance backwards")
        target = self._now + duration
        self.run(until=target)
        self._now = max(self._now, target)
