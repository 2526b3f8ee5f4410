"""Declarative scenario grids executed serially or across processes.

A sweep is declared as a list of :class:`RunSpec` (scenario name plus keyword
parameters) and handed to :class:`ExperimentRunner`.  Each run builds its own
simulator from its own seed, so runs are independent and can execute in any
order on any worker while remaining bit-for-bit reproducible; the runner
returns outcomes in declaration order regardless of completion order.

Only the spec (a string and a tuple of primitives) crosses the process
boundary — workers resolve the scenario function from the registry in
:mod:`repro.experiments.scenarios` by name.  This keeps the engine robust to
the usual pickling pitfalls (lambdas, locally defined classes, bound
methods).

Resilience: sweeps survive the failures that long population-scale grids
actually hit.  Worker crashes (``BrokenProcessPool``) respawn the pool and
send the in-flight chunks to a *K-way probation tier* — each suspect
re-runs in its own isolated single-worker pool, so a crash identifies its
culprit definitively without serialising the rest of the sweep (the main
pool keeps draining untouched chunks at full width alongside probation).
Per-run timeouts are enforced in both modes: a stalled pool is killed and
its innocent chunks requeued, and serial runs are preempted by a watchdog
thread that raises inside the running scenario.  Failed runs can be
retried with exponential backoff and *deterministic* jitter
(:class:`RetryPolicy` — the jitter is a pure function of the run label and
attempt number, so resumed sweeps pace identically); every failure carries
a typed ``error_kind`` on its :class:`RunOutcome`.  Sweeps are made
durable by writing through the run store of :mod:`repro.experiments.store`
(manifests + fsynced segments) via :meth:`ExperimentRunner.run_stored`,
and later :meth:`resumed <ExperimentRunner.resume_stored>`: finished specs
are skipped and the combined outcome list is identical to an
uninterrupted run (scenarios are pure functions of their spec, so
re-executing the unfinished tail reproduces exactly what the interrupted
run would have produced).  Cancellation is graceful: SIGINT or a
sweep-wide deadline raises :class:`SweepCancelled` *after* every finished
outcome has been flushed and fsynced, so a resume continues from the
cancellation point.
"""

from __future__ import annotations

import logging
import os
import random
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.experiments.store import RepairEvent, RunStore, SweepWriter
from repro.measurement.report import format_table

#: The typed error taxonomy carried by ``RunOutcome.error_kind``:
#:
#: * ``scenario-error`` — the scenario function raised; deterministic for a
#:   deterministic scenario, so not retried by default.
#: * ``timeout`` — the run (or its chunk — see ``run_timeout``) exceeded its
#:   deadline and the worker was killed.
#: * ``worker-crash`` — the worker process died (OOM kill, segfault,
#:   ``BrokenProcessPool``); every chunk in flight at the moment of the
#:   crash is attributed this kind because the pool cannot say which task
#:   took the process down.
ERROR_KINDS = ("scenario-error", "timeout", "worker-crash")


_logger = logging.getLogger(__name__)


class SweepCancelled(RuntimeError):
    """A sweep stopped early — gracefully — on SIGINT or a sweep deadline.

    Every outcome that finished before the cancellation was already
    flushed (and fsynced) to the run store, so
    :meth:`ExperimentRunner.resume_stored` continues exactly from the
    cancellation point.  The finished outcomes ride on the exception as
    ``outcomes`` (``{spec index: RunOutcome}``).
    """

    def __init__(
        self, reason: str, results: dict[int, "RunOutcome"], total: int
    ) -> None:
        self.reason = reason  # "interrupt" or "deadline"
        self.outcomes = {index: results[index] for index in sorted(results)}
        self.completed = len(results)
        self.total = total
        cause = "SIGINT" if reason == "interrupt" else "its sweep deadline"
        super().__init__(
            f"sweep cancelled by {cause} after {self.completed}/{total} runs; "
            "finished outcomes are flushed — resume_stored() continues from them"
        )


class _SweepDeadlineReached(Exception):
    """Internal: the sweep-wide deadline expired (converted to
    :class:`SweepCancelled` by :meth:`ExperimentRunner._run`)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Retry failed runs with exponential backoff and deterministic jitter.

    ``delay(label, attempt)`` is a pure function — the jitter comes from a
    :class:`random.Random` seeded with the run label and attempt number,
    not from global randomness — so a resumed sweep backs off exactly like
    the uninterrupted one would have.  ``retry_on`` selects which
    :data:`ERROR_KINDS` are worth re-executing; the default retries the
    transient kinds (crashes, timeouts) and not deterministic scenario
    errors, which would fail identically every time.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter_fraction: float = 0.1
    retry_on: tuple[str, ...] = ("worker-crash", "timeout")

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff bounds must be >= 0")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError(
                f"jitter_fraction must be in [0, 1], got {self.jitter_fraction}"
            )
        for kind in self.retry_on:
            if kind not in ERROR_KINDS:
                raise ValueError(
                    f"unknown error kind {kind!r}; expected one of {ERROR_KINDS}"
                )

    def should_retry(self, error_kind: Optional[str], attempt: int) -> bool:
        """Whether a failure of ``error_kind`` on ``attempt`` gets another go."""
        return attempt < self.max_attempts and error_kind in self.retry_on

    def delay(self, label: str, attempt: int) -> float:
        """Backoff before re-running ``label`` after failed ``attempt``."""
        backoff = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter_fraction <= 0.0 or backoff <= 0.0:
            return backoff
        unit = random.Random(f"{label}#{attempt}").random()
        return backoff * (1.0 + self.jitter_fraction * (2.0 * unit - 1.0))


@dataclass(frozen=True)
class RunSpec:
    """One cell of a scenario grid: a registered scenario plus parameters.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so the
    spec is hashable and its repr is stable — useful as a table row key and
    for deduplication.
    """

    scenario: str
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, scenario: str, **params: Any) -> "RunSpec":
        """Build a spec from keyword parameters."""
        return cls(scenario=scenario, params=tuple(sorted(params.items())))

    def kwargs(self) -> dict[str, Any]:
        """The parameters as a keyword dict (what the scenario receives)."""
        return dict(self.params)

    @property
    def label(self) -> str:
        """Human-readable label, e.g. ``table2[client=ntpd, seed=5]``."""
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.scenario}[{inner}]" if inner else self.scenario


@dataclass
class RunOutcome:
    """The result of executing one :class:`RunSpec`."""

    spec: RunSpec
    result: Any = None
    wall_time: float = 0.0
    error: Optional[str] = None
    #: One of :data:`ERROR_KINDS` when ``error`` is set, ``None`` otherwise.
    error_kind: Optional[str] = None
    #: Which execution attempt produced this outcome (1 = first try).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """True when the run completed without raising."""
        return self.error is None


def make_grid(scenario: str, **axes: Iterable[Any]) -> list[RunSpec]:
    """Cross-product a set of named axes into a list of specs.

    ``make_grid("table2", client=["ntpd", "chrony"], seed=[1, 2])`` yields
    four specs in deterministic (row-major, insertion-ordered) order.
    """
    names = list(axes)
    combos = product(*(list(axes[name]) for name in names))
    return [
        RunSpec.make(scenario, **dict(zip(names, combo))) for combo in combos
    ]


def _execute_chunk(specs: tuple[RunSpec, ...]) -> list[RunOutcome]:
    """Run a contiguous slice of the grid in one worker task.

    Chunked submission amortises the per-task overhead of the process pool
    (pickling, dispatch) and — together with the
    :func:`repro.experiments.warmup.warm_worker_caches` pool initializer —
    means a worker pays the import/intern/memo warm-up once, not once per
    scenario.  Top-level, hence picklable.
    """
    from repro.experiments.warmup import warm_worker_caches

    warm_worker_caches()
    return [_execute(spec) for spec in specs]


def _execute(spec: RunSpec) -> RunOutcome:
    """Run one spec (in the current process).  Top-level, hence picklable."""
    from repro.experiments.scenarios import get_scenario

    started = time.perf_counter()
    try:
        result = get_scenario(spec.scenario)(**spec.kwargs())
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        return RunOutcome(
            spec=spec,
            wall_time=time.perf_counter() - started,
            error=f"{type(exc).__name__}: {exc}",
            error_kind="scenario-error",
        )
    return RunOutcome(spec=spec, result=result, wall_time=time.perf_counter() - started)


# ------------------------------------------------------------ serial watchdog
class _RunTimeoutInterrupt(BaseException):
    """Raised *inside* a thread whose serial run exceeded its deadline.

    Derives from ``BaseException`` so a scenario's own ``except
    Exception`` blocks cannot swallow the preemption.
    """


try:
    import ctypes

    # PYFUNCTYPE keeps the GIL held across the call, which pythonapi needs.
    _raise_async_exc = ctypes.PYFUNCTYPE(
        ctypes.c_int, ctypes.c_ulong, ctypes.py_object
    )(("PyThreadState_SetAsyncExc", ctypes.pythonapi))
    _clear_async_exc = ctypes.PYFUNCTYPE(
        ctypes.c_int, ctypes.c_ulong, ctypes.c_void_p
    )(("PyThreadState_SetAsyncExc", ctypes.pythonapi))
except (ImportError, AttributeError):  # non-CPython: no async-exc injection
    _raise_async_exc = None
    _clear_async_exc = None


class _Watchdog:
    """Heartbeat thread enforcing per-run deadlines on in-process runs.

    Pool mode enforces ``run_timeout`` by killing the worker process;
    serial mode has no process to kill, so the watchdog preempts the run
    by raising :class:`_RunTimeoutInterrupt` inside the executing thread
    (``PyThreadState_SetAsyncExc``).  CPU-bound scenarios — the real
    workload, simulator event loops — are interrupted at the next
    bytecode boundary; a run blocked inside one long C call (e.g. a
    single ``time.sleep`` spanning the whole budget) only observes the
    interrupt when that call returns, the inherent limit of in-process
    preemption.

    Arming, firing and disarming are serialised under one lock, and
    :meth:`disarm` cancels a fired-but-not-yet-materialised interrupt, so
    a run that finishes exactly at its deadline cannot leak the interrupt
    into the next run.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._watching = False
        self._armed_tid: Optional[int] = None
        self._deadline = 0.0
        self._generation = 0
        self._fired = False
        self._thread: Optional[threading.Thread] = None

    @staticmethod
    def available() -> bool:
        """Whether this interpreter supports async-exception injection."""
        return _raise_async_exc is not None

    def arm(self, thread_id: int, timeout: float) -> int:
        """Start the deadline clock for ``thread_id``; returns a token."""
        with self._wake:
            self._generation += 1
            self._armed_tid = thread_id
            self._deadline = time.monotonic() + timeout
            self._watching = True
            self._fired = False
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._loop, name="experiment-watchdog", daemon=True
                )
                self._thread.start()
            self._wake.notify_all()
            return self._generation

    def disarm(self, token: int) -> bool:
        """Stop watching; returns True when the deadline fired for ``token``."""
        with self._wake:
            if self._generation != token:
                return False
            fired = self._fired
            tid = self._armed_tid
            self._watching = False
            self._armed_tid = None
            self._fired = False
            self._wake.notify_all()
        if fired and tid is not None:
            # Cancel an injected interrupt that has not materialised yet
            # (the run won the race and completed); a materialised one is
            # already propagating and is caught by the caller.
            _clear_async_exc(tid, None)
        return fired

    def _loop(self) -> None:
        with self._wake:
            while True:
                if not self._watching:
                    self._wake.wait()
                    continue
                remaining = self._deadline - time.monotonic()
                if remaining > 0:
                    self._wake.wait(timeout=remaining)
                    continue
                # Deadline reached: inject while holding the lock so a
                # concurrent disarm() cannot interleave.
                self._fired = True
                self._watching = False
                _raise_async_exc(self._armed_tid, _RunTimeoutInterrupt)


class _ProgressTracker:
    """Throttled completed/total emission for one sweep."""

    def __init__(
        self,
        callback: Optional[Callable[[int, int], None]],
        interval: float,
        total: int,
        completed: int,
    ) -> None:
        self.callback = callback
        self.interval = interval
        self.total = total
        self.completed = completed
        self._last_time = time.monotonic()
        self._last_reported = -1

    def advance(self, count: int = 1) -> None:
        self.completed += count
        if self.callback is None:
            return
        now = time.monotonic()
        if (
            self.interval <= 0.0
            or now - self._last_time >= self.interval
            or self.completed >= self.total
        ):
            self._last_time = now
            self._last_reported = self.completed
            self.callback(self.completed, self.total)

    def finish(self) -> None:
        """Guarantee a final emission even when the throttle swallowed it."""
        if self.callback is not None and self._last_reported != self.completed:
            self._last_reported = self.completed
            self.callback(self.completed, self.total)


@dataclass(frozen=True)
class _Chunk:
    """A contiguous slice of the grid scheduled as one pool task."""

    items: tuple[tuple[int, RunSpec], ...]  # (declaration index, spec)
    attempt: int = 1

    @property
    def label(self) -> str:
        first = self.items[0][1].label
        if len(self.items) == 1:
            return first
        return f"{first} (+{len(self.items) - 1} more)"


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers and abandon it (stalled or broken)."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 - already-dead workers are fine
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # noqa: BLE001 - broken executors may refuse shutdown
        pass


class ExperimentRunner:
    """Execute scenario sweeps, optionally fanning out across processes.

    Parameters
    ----------
    max_workers:
        ``1`` forces in-process serial execution (no pickling requirements
        at all).  ``None`` uses ``os.cpu_count()``.  Anything larger than 1
        uses a ``ProcessPoolExecutor``; if the pool cannot be created or a
        submission fails to pickle, the runner falls back to serial
        execution rather than failing the sweep.
    chunk_size:
        Scenarios per worker task when fanning out across processes.
        ``None`` (the default) picks ``ceil(len(specs) / (4 * workers))``
        — large enough to amortise dispatch, small enough to load-balance
        a heterogeneous grid.  ``1`` reproduces the old task-per-scenario
        submission.  Each chunk runs against that worker's warmed caches
        (see :mod:`repro.experiments.warmup`).
    run_timeout:
        Per-run wall-clock budget in seconds, enforced in *both* modes.
        In process mode a chunk of ``k`` runs gets ``k × run_timeout``,
        and on expiry the pool is killed, the stalled chunk fails (or
        retries) with kind ``"timeout"``, the other in-flight chunks are
        requeued unharmed and a fresh pool takes over; pass
        ``chunk_size=1`` for strict per-run deadlines.  In serial mode a
        watchdog thread preempts the running scenario by raising inside
        it (see :class:`_Watchdog`) — CPU-bound scenarios are interrupted
        at the next bytecode boundary; a run blocked in one long C call
        observes the interrupt when the call returns.
    retry:
        A :class:`RetryPolicy`; ``None`` disables retries.  Failed runs of
        a kind in ``retry_on`` re-execute (scenarios are pure functions of
        their spec, so a retry that succeeds is indistinguishable from a
        first-try success apart from ``RunOutcome.attempts``).
    sweep_timeout:
        Wall-clock budget in seconds for the whole sweep.  On expiry the
        sweep cancels gracefully: pools are killed, every finished
        outcome is already flushed, and :class:`SweepCancelled` carries
        the partial results (``resume_stored()`` continues from them).
        SIGINT (``KeyboardInterrupt``) cancels the same way.
    on_progress:
        ``callback(completed, total)`` invoked as runs finish (a resumed
        sweep counts from the outcomes it already recorded).  Throttled by
        ``progress_interval`` seconds (``0`` emits on every completion); a
        final emission is guaranteed.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        run_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        sweep_timeout: Optional[float] = None,
        on_progress: Optional[Callable[[int, int], None]] = None,
        progress_interval: float = 0.0,
    ) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if run_timeout is not None and run_timeout <= 0:
            raise ValueError(f"run_timeout must be > 0, got {run_timeout}")
        if sweep_timeout is not None and sweep_timeout <= 0:
            raise ValueError(f"sweep_timeout must be > 0, got {sweep_timeout}")
        if progress_interval < 0:
            raise ValueError(f"progress_interval must be >= 0, got {progress_interval}")
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self.run_timeout = run_timeout
        self.retry = retry
        #: How many isolated single-worker pools re-run crash suspects
        #: concurrently (the K of the K-way probation tier).  Suspects must
        #: run isolated for definitive culprit attribution, but probation
        #: runs *alongside* the main pool — a crash does not serialise the
        #: sweep.
        self.probation_width = min(2, max_workers)
        self.sweep_timeout = sweep_timeout
        self.on_progress = on_progress
        self.progress_interval = progress_interval
        #: "serial" or "processes[N] chunks[M]" — how the last sweep ran.
        self.last_execution_mode: str = "serial"
        #: Crash/timeout/probation counters from the last pool sweep (see
        #: :class:`_PoolEngine`); empty for serial sweeps.
        self.last_recovery: dict[str, Any] = {}
        #: The sweep id of the last run_stored()/resume_stored() sweep.
        self.last_sweep_id: Optional[str] = None
        self._watchdog: Optional[_Watchdog] = None

    # ------------------------------------------------------------- execution
    def run(self, specs: Sequence[RunSpec]) -> list[RunOutcome]:
        """Execute all specs, returning outcomes in declaration order.

        Nothing is persisted; :meth:`run_stored` is the durable variant.
        """
        return self._run(list(specs), None, {})

    # ------------------------------------------------------ store write-through
    def run_stored(
        self,
        store: RunStore,
        name: str,
        specs: Sequence[RunSpec],
        *,
        sweep_id: Optional[str] = None,
        seed: Optional[int] = None,
        fault_plan: Optional[Any] = None,
        metadata: Optional[dict[str, Any]] = None,
        finish: bool = True,
    ) -> list[RunOutcome]:
        """Execute a sweep writing through a durable
        :class:`~repro.experiments.store.RunStore`.

        The sweep's manifest (spec list, seed, fault plan, git revision)
        commits atomically before the first run; every finished outcome
        appends to an fsynced segment as it completes.  On success the
        manifest is stamped ``complete``; graceful cancellation stamps
        ``cancelled`` (and :meth:`resume_stored` continues the sweep);
        any other failure stamps ``failed``.  The sweep id lands in
        :attr:`last_sweep_id`.

        ``finish=False`` leaves a successful sweep stamped ``running`` so
        the caller can append derived records (aggregates, summaries)
        before stamping ``complete`` itself — a crash in that window then
        resumes instead of masquerading as a finished sweep.  Cancellation
        and failure stamp their statuses regardless.
        """
        specs = list(specs)
        writer = store.begin_sweep(
            name,
            specs,
            sweep_id=sweep_id,
            seed=seed,
            fault_plan=fault_plan,
            metadata=metadata,
        )
        self.last_sweep_id = writer.sweep_id
        return self._run_through_store(
            store, writer.sweep_id, specs, writer, {}, finish=finish
        )

    def resume_stored(
        self,
        store: RunStore,
        sweep_id: str,
        specs: Optional[Sequence[RunSpec]] = None,
        *,
        finish: bool = True,
    ) -> list[RunOutcome]:
        """Continue a store-backed sweep from its recorded outcomes.

        ``specs=None`` rebuilds the spec list from the sweep's manifest —
        a crashed sweep resumes from nothing but its store directory.
        Recorded outcomes are validated against the specs (damaged
        records are skipped with a logged warning and simply re-execute),
        and new outcomes append into a fresh segment.  The combined
        result is identical to an uninterrupted :meth:`run_stored`.
        """
        if specs is None:
            specs = store.specs(sweep_id)
        specs = list(specs)
        repairs: list[RepairEvent] = []
        done = store.load_outcomes(sweep_id, specs, repairs=repairs)
        for event in repairs:
            _logger.warning(
                "store sweep %s: skipped damaged record — %s", sweep_id, event
            )
        writer = store.open_sweep(sweep_id)
        self.last_sweep_id = sweep_id
        return self._run_through_store(
            store, sweep_id, specs, writer, done, finish=finish
        )

    def _run_through_store(
        self,
        store: RunStore,
        sweep_id: str,
        specs: list[RunSpec],
        writer: SweepWriter,
        done: dict[int, RunOutcome],
        finish: bool = True,
    ) -> list[RunOutcome]:
        try:
            outcomes = self._run(specs, writer, done)
        except SweepCancelled:
            store.finish_sweep(sweep_id, "cancelled")
            raise
        except BaseException:
            store.finish_sweep(sweep_id, "failed")
            raise
        if finish:
            store.finish_sweep(sweep_id, "complete")
        return outcomes

    def _run(
        self,
        specs: list[RunSpec],
        writer: Optional[SweepWriter],
        done: dict[int, RunOutcome],
    ) -> list[RunOutcome]:
        deadline = None
        if self.sweep_timeout is not None:
            deadline = time.monotonic() + self.sweep_timeout
        try:
            results: dict[int, RunOutcome] = dict(done)
            remaining = [
                (index, spec)
                for index, spec in enumerate(specs)
                if index not in results
            ]
            progress = _ProgressTracker(
                self.on_progress, self.progress_interval, len(specs), len(results)
            )
            try:
                if self.max_workers == 1 or len(remaining) <= 1:
                    self.last_execution_mode = "serial"
                    self._run_serial(remaining, results, writer, progress, deadline)
                else:
                    self._run_pool(remaining, results, writer, progress, deadline)
            except KeyboardInterrupt:
                # Graceful cancellation: every finished outcome is already
                # flushed and fsynced; resume_stored() continues from them.
                raise SweepCancelled("interrupt", results, len(specs)) from None
            except _SweepDeadlineReached:
                raise SweepCancelled("deadline", results, len(specs)) from None
            progress.finish()
            return [results[index] for index in range(len(specs))]
        finally:
            if writer is not None:
                writer.close()

    def _record(
        self,
        index: int,
        outcome: RunOutcome,
        results: dict[int, RunOutcome],
        writer: Optional[SweepWriter],
        progress: _ProgressTracker,
    ) -> None:
        results[index] = outcome
        if writer is not None:
            writer.append(index, outcome)
        progress.advance()

    def _execute_serial(self, spec: RunSpec) -> RunOutcome:
        """One in-process run, pre-empted by the watchdog at ``run_timeout``.

        The watchdog injects :class:`_RunTimeoutInterrupt` into this thread
        when the deadline passes; because it is a ``BaseException`` the
        scenario's own ``except Exception`` handlers cannot swallow it.  A
        run that completes in the same instant the deadline fires keeps its
        real outcome — the pending interrupt is cleared before it can
        materialise.
        """
        timeout = self.run_timeout
        if timeout is None:
            return _execute(spec)
        if self._watchdog is None:
            self._watchdog = _Watchdog()
        watchdog = self._watchdog
        if not watchdog.available():
            return _execute(spec)
        token = watchdog.arm(threading.get_ident(), timeout)
        try:
            try:
                outcome = _execute(spec)
            finally:
                watchdog.disarm(token)
        except _RunTimeoutInterrupt:
            return RunOutcome(
                spec=spec,
                error=(
                    f"run exceeded its {timeout}s deadline "
                    "(interrupted in-process by the serial watchdog)"
                ),
                error_kind="timeout",
            )
        return outcome

    def _execute_with_retry(self, spec: RunSpec) -> RunOutcome:
        """Serial execution with the retry policy applied in-process."""
        attempt = 1
        while True:
            outcome = self._execute_serial(spec)
            outcome.attempts = attempt
            if (
                outcome.ok
                or self.retry is None
                or not self.retry.should_retry(outcome.error_kind, attempt)
            ):
                return outcome
            time.sleep(self.retry.delay(spec.label, attempt))
            attempt += 1

    def _run_serial(
        self,
        remaining: list[tuple[int, RunSpec]],
        results: dict[int, RunOutcome],
        writer: Optional[SweepWriter],
        progress: _ProgressTracker,
        deadline: Optional[float] = None,
    ) -> None:
        for index, spec in remaining:
            if deadline is not None and time.monotonic() >= deadline:
                raise _SweepDeadlineReached
            self._record(index, self._execute_with_retry(spec), results, writer, progress)

    # ------------------------------------------------------------- pool engine
    def _make_pool(self) -> ProcessPoolExecutor:
        from repro.experiments.warmup import warm_worker_caches

        return ProcessPoolExecutor(
            max_workers=self.max_workers, initializer=warm_worker_caches
        )

    def _make_probation_pool(self) -> ProcessPoolExecutor:
        """An isolated single-worker pool for re-running a crash suspect."""
        from repro.experiments.warmup import warm_worker_caches

        return ProcessPoolExecutor(max_workers=1, initializer=warm_worker_caches)

    def _handle_chunk_failure(
        self,
        chunk: _Chunk,
        kind: str,
        requeue: "deque[_Chunk]",
        results: dict[int, RunOutcome],
        writer: Optional[SweepWriter],
        progress: _ProgressTracker,
    ) -> None:
        """Retry a definitively-failed chunk, or materialise typed outcomes."""
        if self.retry is not None and self.retry.should_retry(kind, chunk.attempt):
            time.sleep(self.retry.delay(chunk.label, chunk.attempt))
            requeue.append(_Chunk(chunk.items, chunk.attempt + 1))
            return
        if kind == "timeout":
            message = (
                f"run exceeded its {self.run_timeout}s deadline "
                "(worker killed, pool respawned)"
            )
        else:
            message = "worker process died (pool respawned)"
        for index, spec in chunk.items:
            self._record(
                index,
                RunOutcome(
                    spec=spec, error=message, error_kind=kind, attempts=chunk.attempt
                ),
                results,
                writer,
                progress,
            )

    def _run_pool(
        self,
        remaining: list[tuple[int, RunSpec]],
        results: dict[int, RunOutcome],
        writer: Optional[SweepWriter],
        progress: _ProgressTracker,
        deadline: Optional[float] = None,
    ) -> None:
        """Drain the sweep through the K-way probation pool engine."""
        _PoolEngine(self, remaining, results, writer, progress, deadline).run()

    def _chunk(self, specs: list) -> list[tuple]:
        """Slice the grid into contiguous worker tasks (see ``chunk_size``)."""
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(specs) // (4 * self.max_workers)))
        return [
            tuple(specs[start : start + size]) for start in range(0, len(specs), size)
        ]


class _PoolEngine:
    """Resilient pool drain with a K-way probation tier.

    Three tiers.  The **main pool** (width ``max_workers``) drains
    untouched chunks; when it breaks, every in-flight chunk is a crash
    suspect.  The **probation tier** re-runs suspects, each in its own
    isolated single-worker pool (up to ``probation_width`` at once) so a
    repeat crash has exactly one suspect — the definitive culprit fails
    (or retries) with kind ``"worker-crash"`` — while the respawned main
    pool keeps draining the rest of the sweep at full width.  Innocent
    bystanders complete in probation and their pool is reused for the
    next suspect.  **Serial drain** in the driver is the last resort
    when no pool can start at all.

    Per-run deadlines are enforced in both tiers (a stalled worker holds
    its pool hostage — ``ProcessPoolExecutor`` cannot cancel a running
    task — so the owning pool is killed; for the main pool, innocent
    siblings requeue at the front of ``pending`` at their current
    attempt).  Recovery statistics land in
    :attr:`ExperimentRunner.last_recovery`.
    """

    def __init__(
        self,
        runner: ExperimentRunner,
        remaining: list[tuple[int, RunSpec]],
        results: dict[int, RunOutcome],
        writer: Optional[SweepWriter],
        progress: _ProgressTracker,
        deadline: Optional[float],
    ) -> None:
        self.runner = runner
        self.results = results
        self.writer = writer
        self.progress = progress
        self.deadline = deadline
        self.pending: deque[_Chunk] = deque(
            _Chunk(tuple(slice_)) for slice_ in runner._chunk(remaining)
        )
        self.quarantine: deque[_Chunk] = deque()
        self.main_flight: dict[Any, tuple[_Chunk, Optional[float]]] = {}
        self.probation: dict[
            Any, tuple[_Chunk, ProcessPoolExecutor, Optional[float]]
        ] = {}
        self.idle_probation: list[ProcessPoolExecutor] = []
        self.pool: Optional[ProcessPoolExecutor] = None
        self.probation_unavailable = False
        self.recovery: dict[str, Any] = {
            "worker_crashes": 0,
            "probation_runs": 0,
            "timeouts": 0,
            "max_parallel_after_crash": 0,
        }

    def run(self) -> None:
        runner = self.runner
        runner.last_recovery = self.recovery
        try:
            self.pool = runner._make_pool()
        except Exception:  # pool creation failure: degrade gracefully
            runner.last_execution_mode = "serial (process pool unavailable)"
            leftovers = [item for chunk in self.pending for item in chunk.items]
            self.pending.clear()
            runner._run_serial(
                leftovers, self.results, self.writer, self.progress, self.deadline
            )
            return
        runner.last_execution_mode = (
            f"processes[{runner.max_workers}] chunks[{len(self.pending)}]"
        )
        try:
            self._drain()
        finally:
            if self.pool is not None:
                self.pool.shutdown(wait=False, cancel_futures=True)
            for pool in self.idle_probation:
                pool.shutdown(wait=False, cancel_futures=True)
            for _chunk, pool, _deadline in self.probation.values():
                _kill_pool(pool)

    # --------------------------------------------------------------- drain loop
    def _drain(self) -> None:
        while self.pending or self.quarantine or self.main_flight or self.probation:
            self._check_sweep_deadline()
            self._fill_probation()
            if not self._fill_main():
                if not self._recover_main(innocents_to="quarantine"):
                    return
                continue
            futures = set(self.main_flight) | set(self.probation)
            if not futures:
                continue
            if self.recovery["worker_crashes"]:
                parallel = len(self.main_flight) + len(self.probation)
                if parallel > self.recovery["max_parallel_after_crash"]:
                    self.recovery["max_parallel_after_crash"] = parallel
            completed, _running = wait(
                futures, timeout=self._wait_timeout(), return_when=FIRST_COMPLETED
            )
            if not completed:
                self._check_sweep_deadline()
                if not self._deadline_sweep():
                    return
                continue
            flight_size = len(self.main_flight)
            main_crashed = False
            for future in completed:
                if future in self.main_flight:
                    crashed = self._finish_main(future, flight_size)
                    main_crashed = main_crashed or crashed
                else:
                    self._finish_probation(future)
            if main_crashed:
                # A broken pool takes every in-flight sibling with it; the
                # break counts once, however many futures it failed.
                self.recovery["worker_crashes"] += 1
                if not self._recover_main(innocents_to="quarantine"):
                    return

    # ------------------------------------------------------------- submissions
    def _fill_main(self) -> bool:
        """Feed the main pool from ``pending``; False when it is broken."""
        if self.probation_unavailable and self.quarantine:
            # No isolated pools can start: fall back to running suspects
            # solo through the main pool (one at a time keeps culprit
            # attribution exact), holding fresh work until they settle.
            if not self.main_flight and not self.probation:
                return self._submit_main(self.quarantine.popleft())
            return True
        while self.pending and len(self.main_flight) < self.runner.max_workers:
            if not self._submit_main(self.pending.popleft()):
                return False
        return True

    def _submit_main(self, chunk: _Chunk) -> bool:
        """Submit one chunk; False means the pool is already broken."""
        try:
            future = self.pool.submit(
                _execute_chunk, tuple(spec for _, spec in chunk.items)
            )
        except BrokenProcessPool:
            self.recovery["worker_crashes"] += 1
            self.quarantine.appendleft(chunk)
            return False
        except Exception:  # unpicklable chunk: run it in the driver
            for index, spec in chunk.items:
                self.runner._record(
                    index,
                    self.runner._execute_with_retry(spec),
                    self.results,
                    self.writer,
                    self.progress,
                )
            return True
        self.main_flight[future] = (chunk, self._chunk_deadline(chunk))
        return True

    def _fill_probation(self) -> None:
        """Start suspects in isolated pools, up to ``probation_width``."""
        runner = self.runner
        if self.probation_unavailable:
            return
        while self.quarantine and len(self.probation) < runner.probation_width:
            chunk = self.quarantine.popleft()
            pool = self._probation_pool()
            if pool is None:
                self.quarantine.appendleft(chunk)
                self.probation_unavailable = True
                return
            payload = tuple(spec for _, spec in chunk.items)
            try:
                future = pool.submit(_execute_chunk, payload)
            except Exception:
                # A reused idle pool had died in the meantime — retire it
                # and retry once on a definitely-fresh pool.
                _kill_pool(pool)
                pool = None
                try:
                    pool = runner._make_probation_pool()
                    future = pool.submit(_execute_chunk, payload)
                except Exception:
                    if pool is not None:
                        _kill_pool(pool)
                    self.quarantine.appendleft(chunk)
                    self.probation_unavailable = True
                    return
            self.recovery["probation_runs"] += 1
            self.probation[future] = (chunk, pool, self._chunk_deadline(chunk))

    def _probation_pool(self) -> Optional[ProcessPoolExecutor]:
        if self.idle_probation:
            return self.idle_probation.pop()
        try:
            return self.runner._make_probation_pool()
        except Exception:
            return None

    def _chunk_deadline(self, chunk: _Chunk) -> Optional[float]:
        if self.runner.run_timeout is None:
            return None
        return time.monotonic() + self.runner.run_timeout * len(chunk.items)

    # --------------------------------------------------------------- completion
    def _finish_main(self, future: Any, flight_size: int) -> bool:
        """Settle one main-pool future; True when the pool broke under it."""
        chunk, _deadline = self.main_flight.pop(future)
        try:
            outcomes = future.result()
        except BrokenProcessPool:
            if flight_size == 1:
                # It had the pool to itself: definitive culprit.
                self._fail(chunk, "worker-crash")
            else:
                self.quarantine.appendleft(chunk)
            return True
        except Exception:  # worker-side dispatch failure
            self._fail(chunk, "worker-crash")
            return True
        for (index, _spec), outcome in zip(chunk.items, outcomes):
            outcome.attempts = chunk.attempt
            self.runner._record(
                index, outcome, self.results, self.writer, self.progress
            )
        return False

    def _finish_probation(self, future: Any) -> None:
        """Settle one probation future — a crash here has one suspect."""
        chunk, pool, _deadline = self.probation.pop(future)
        try:
            outcomes = future.result()
        except BrokenProcessPool:
            # It had the pool to itself: definitive culprit.
            self.recovery["worker_crashes"] += 1
            _kill_pool(pool)
            self._fail(chunk, "worker-crash")
            return
        except Exception:  # worker-side dispatch failure
            _kill_pool(pool)
            self._fail(chunk, "worker-crash")
            return
        for (index, _spec), outcome in zip(chunk.items, outcomes):
            outcome.attempts = chunk.attempt
            self.runner._record(
                index, outcome, self.results, self.writer, self.progress
            )
        self.idle_probation.append(pool)

    def _fail(self, chunk: _Chunk, kind: str) -> None:
        requeue = self.quarantine if kind == "worker-crash" else self.pending
        self.runner._handle_chunk_failure(
            chunk, kind, requeue, self.results, self.writer, self.progress
        )

    # ----------------------------------------------------------------- recovery
    def _recover_main(self, innocents_to: str) -> bool:
        """Kill + respawn the main pool; False when the sweep went serial.

        ``innocents_to`` routes the surviving in-flight chunks: after a
        crash every one is a suspect (``"quarantine"``); after a timeout
        kill they are known innocent and requeue at the front of
        ``pending`` (``"pending"``) at their current attempt.
        """
        _kill_pool(self.pool)
        self.pool = None
        target = self.quarantine if innocents_to == "quarantine" else self.pending
        for _future, (chunk, _deadline) in reversed(list(self.main_flight.items())):
            target.appendleft(chunk)
        self.main_flight.clear()
        try:
            self.pool = self.runner._make_pool()
            return True
        except Exception:  # noqa: BLE001 - degrade, don't lose the sweep
            self._drain_serial()
            return False

    def _deadline_sweep(self) -> bool:
        """Expire overdue runs; False when main recovery went serial."""
        if self.runner.run_timeout is None:
            return True
        now = time.monotonic()
        self._expire_probation(now)
        expired = [
            future
            for future, (_chunk, deadline) in self.main_flight.items()
            if deadline is not None and deadline <= now
        ]
        if not expired:
            return True
        for future in expired:
            chunk, _deadline = self.main_flight.pop(future)
            self.recovery["timeouts"] += 1
            self._fail(chunk, "timeout")
        return self._recover_main(innocents_to="pending")

    def _expire_probation(self, now: float) -> None:
        """Probation pools are independent: kill only the expired ones."""
        expired = [
            future
            for future, (_chunk, _pool, deadline) in self.probation.items()
            if deadline is not None and deadline <= now
        ]
        for future in expired:
            chunk, pool, _deadline = self.probation.pop(future)
            self.recovery["timeouts"] += 1
            _kill_pool(pool)
            self._fail(chunk, "timeout")

    def _drain_serial(self) -> None:
        """Last resort: settle probation, then run the rest in the driver."""
        runner = self.runner
        runner.last_execution_mode = "serial (process pool unavailable)"
        while self.probation:
            self._check_sweep_deadline()
            completed, _running = wait(
                set(self.probation),
                timeout=self._wait_timeout(),
                return_when=FIRST_COMPLETED,
            )
            if not completed:
                self._expire_probation(time.monotonic())
                continue
            for future in completed:
                self._finish_probation(future)
        leftovers = [
            item
            for chunk in list(self.quarantine) + list(self.pending)
            for item in chunk.items
        ]
        self.quarantine.clear()
        self.pending.clear()
        runner._run_serial(
            leftovers, self.results, self.writer, self.progress, self.deadline
        )

    # ---------------------------------------------------------------- deadlines
    def _wait_timeout(self) -> Optional[float]:
        deadlines = [
            deadline
            for _chunk, deadline in self.main_flight.values()
            if deadline is not None
        ]
        deadlines.extend(
            deadline
            for _chunk, _pool, deadline in self.probation.values()
            if deadline is not None
        )
        if self.deadline is not None:
            deadlines.append(self.deadline)
        if not deadlines:
            return None
        return max(0.01, min(deadlines) - time.monotonic())

    def _check_sweep_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise _SweepDeadlineReached


# ------------------------------------------------------------------ reporting
def outcomes_table(
    outcomes: Sequence[RunOutcome],
    columns: Sequence[tuple[str, Callable[[RunOutcome], Any]]],
    title: str = "",
) -> str:
    """Render outcomes with :func:`repro.measurement.report.format_table`.

    ``columns`` is a list of ``(header, extractor)`` pairs; extractors
    receive the :class:`RunOutcome`.
    """
    headers = [header for header, _ in columns]
    rows = [[extract(outcome) for _, extract in columns] for outcome in outcomes]
    return format_table(headers, rows, title=title)
