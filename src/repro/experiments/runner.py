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
actually hit.  A worker crash (``BrokenProcessPool``) respawns the pool and
makes every chunk that was in flight a suspect; the suspects re-run one at
a time, each alone in the respawned pool, so a repeat crash names its
culprit exactly.  Fresh chunks wait until every suspect has settled.
Per-run timeouts are enforced in both modes: a stalled pool is killed and
its innocent chunks requeued, and serial runs are preempted by a watchdog
thread that raises inside the running scenario.  Every failure carries a
typed ``error_kind`` on its :class:`RunOutcome`.  Sweeps are made durable
by writing through the run store of :mod:`repro.experiments.store`
(manifests + fsynced segments) via :meth:`ExperimentRunner.run_stored`,
and later :meth:`resumed <ExperimentRunner.resume_stored>`: finished specs
are skipped and the combined outcome list is identical to an
uninterrupted run (scenarios are pure functions of their spec, so
re-executing the unfinished tail reproduces exactly what the interrupted
run would have produced).  Cancellation is graceful: SIGINT raises
:class:`SweepCancelled` *after* every finished outcome has been flushed
and fsynced, so a resume continues from the cancellation point.
"""

from __future__ import annotations

import logging
import os
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
#: * ``scenario-error`` — the scenario function raised.
#: * ``timeout`` — the run (or its chunk — see ``run_timeout``) exceeded its
#:   deadline and was preempted (serial) or its worker killed (pool).
#: * ``worker-crash`` — the worker process died (OOM kill, segfault,
#:   ``BrokenProcessPool``) while the chunk ran alone in the pool, so the
#:   crash is attributed to that chunk exactly (see :class:`_PoolEngine`).
ERROR_KINDS = ("scenario-error", "timeout", "worker-crash")


_logger = logging.getLogger(__name__)


class SweepCancelled(RuntimeError):
    """A sweep stopped early — gracefully — on SIGINT.

    Every outcome that finished before the cancellation was already
    flushed (and fsynced) to the run store, so
    :meth:`ExperimentRunner.resume_stored` continues exactly from the
    cancellation point.  The finished outcomes ride on the exception as
    ``outcomes`` (``{spec index: RunOutcome}``).
    """

    def __init__(self, results: dict[int, "RunOutcome"], total: int) -> None:
        self.outcomes = {index: results[index] for index in sorted(results)}
        self.completed = len(results)
        self.total = total
        super().__init__(
            f"sweep cancelled by SIGINT after {self.completed}/{total} runs; "
            "finished outcomes are flushed — resume_stored() continues from them"
        )


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


#: A contiguous slice of the grid scheduled as one pool task:
#: ``(declaration index, spec)`` pairs.
_Chunk = tuple[tuple[int, RunSpec], ...]


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
        execution rather than failing the sweep.  A worker crash respawns
        the pool and re-runs the chunks that were in flight one at a time,
        so only the chunk that crashed alone fails (kind
        ``"worker-crash"``).  Pool sweeps submit the
        grid in contiguous chunks of ``ceil(len(specs) / (4 * workers))``
        scenarios — large enough to amortise dispatch, small enough to
        load-balance a heterogeneous grid — each run against that
        worker's warmed caches (see :mod:`repro.experiments.warmup`).
    run_timeout:
        Per-run wall-clock budget in seconds, enforced in *both* modes.
        In process mode a chunk of ``k`` runs gets ``k × run_timeout``,
        and on expiry the pool is killed, the stalled chunk fails with
        kind ``"timeout"``, the other in-flight chunks are requeued
        unharmed and a fresh pool takes over.  In serial mode a watchdog
        thread preempts the running scenario by raising inside it (see
        :class:`_Watchdog`) — CPU-bound scenarios are interrupted at the
        next bytecode boundary; a run blocked in one long C call observes
        the interrupt when the call returns.

    SIGINT (``KeyboardInterrupt``) cancels a sweep gracefully: every
    finished outcome is already flushed, and :class:`SweepCancelled`
    carries the partial results (``resume_stored()`` continues from them).
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        run_timeout: Optional[float] = None,
    ) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if run_timeout is not None and run_timeout <= 0:
            raise ValueError(f"run_timeout must be > 0, got {run_timeout}")
        self.max_workers = max_workers
        self.run_timeout = run_timeout
        #: "serial" or "processes[N] chunks[M]" — how the last sweep ran.
        self.last_execution_mode: str = "serial"
        #: Crash and timeout counters from the last pool sweep (see
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
        try:
            results: dict[int, RunOutcome] = dict(done)
            remaining = [
                (index, spec)
                for index, spec in enumerate(specs)
                if index not in results
            ]
            try:
                if self.max_workers == 1 or len(remaining) <= 1:
                    self.last_execution_mode = "serial"
                    self._run_serial(remaining, results, writer)
                else:
                    _PoolEngine(self, remaining, results, writer).run()
            except KeyboardInterrupt:
                # Graceful cancellation: every finished outcome is already
                # flushed and fsynced; resume_stored() continues from them.
                raise SweepCancelled(results, len(specs)) from None
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
    ) -> None:
        results[index] = outcome
        if writer is not None:
            writer.append(index, outcome)

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

    def _run_serial(
        self,
        remaining: list[tuple[int, RunSpec]],
        results: dict[int, RunOutcome],
        writer: Optional[SweepWriter],
    ) -> None:
        for index, spec in remaining:
            self._record(index, self._execute_serial(spec), results, writer)

    # ------------------------------------------------------------- pool engine
    def _make_pool(self) -> ProcessPoolExecutor:
        from repro.experiments.warmup import warm_worker_caches

        return ProcessPoolExecutor(
            max_workers=self.max_workers, initializer=warm_worker_caches
        )

    def _chunk(self, specs: list) -> list[tuple]:
        """Slice the grid into contiguous worker tasks of
        ``ceil(len(specs) / (4 * max_workers))`` specs each."""
        size = max(1, -(-len(specs) // (4 * self.max_workers)))
        return [
            tuple(specs[start : start + size]) for start in range(0, len(specs), size)
        ]


class _PoolEngine:
    """Resilient pool drain: one pool, crash suspects re-run one at a time.

    The pool (width ``max_workers``) drains ``pending`` chunk by chunk.
    When it breaks, it cannot say which task took the worker down, so
    every chunk in flight goes to ``quarantine`` and a fresh pool is
    spawned.  Suspects then re-run one at a time, each alone in the pool,
    and fresh work waits until every suspect has settled: a suspect that
    breaks the pool while it is the only chunk in flight is the definitive
    culprit and fails with kind ``"worker-crash"``; an innocent one
    completes.  A chunk that breaks the pool while flying alone in the
    first place fails at once.

    Per-run deadlines: a stalled worker holds the pool hostage —
    ``ProcessPoolExecutor`` cannot cancel a running task — so the pool is
    killed, the overdue chunk fails with kind ``"timeout"`` and its
    innocent siblings requeue at the front of ``pending``.  When no pool
    can start or respawn, the driver runs the rest of the sweep serially.
    Recovery counters land in :attr:`ExperimentRunner.last_recovery`.
    """

    def __init__(
        self,
        runner: ExperimentRunner,
        remaining: list[tuple[int, RunSpec]],
        results: dict[int, RunOutcome],
        writer: Optional[SweepWriter],
    ) -> None:
        self.runner = runner
        self.results = results
        self.writer = writer
        self.pending: deque[_Chunk] = deque(runner._chunk(remaining))
        self.quarantine: deque[_Chunk] = deque()
        self.flight: dict[Any, tuple[_Chunk, Optional[float]]] = {}
        self.pool: Optional[ProcessPoolExecutor] = None
        self.recovery: dict[str, Any] = {"worker_crashes": 0, "timeouts": 0}

    def run(self) -> None:
        runner = self.runner
        runner.last_recovery = self.recovery
        try:
            self.pool = runner._make_pool()
        except Exception:  # pool creation failure: degrade gracefully
            self._drain_serial()
            return
        runner.last_execution_mode = (
            f"processes[{runner.max_workers}] chunks[{len(self.pending)}]"
        )
        try:
            self._drain()
        finally:
            if self.pool is not None:
                self.pool.shutdown(wait=False, cancel_futures=True)

    # --------------------------------------------------------------- drain loop
    def _drain(self) -> None:
        while self.pending or self.quarantine or self.flight:
            if not self._fill():
                if not self._recover(self.quarantine):
                    return
                continue
            if not self.flight:
                continue
            completed, _running = wait(
                set(self.flight),
                timeout=self._wait_timeout(),
                return_when=FIRST_COMPLETED,
            )
            if not completed:
                if not self._deadline_sweep():
                    return
                continue
            flight_size = len(self.flight)
            crashed = False
            for future in completed:
                crashed = self._finish(future, flight_size) or crashed
            if crashed:
                # A broken pool takes every in-flight sibling with it; the
                # break counts once, however many futures it failed.
                self.recovery["worker_crashes"] += 1
                if not self._recover(self.quarantine):
                    return

    # ------------------------------------------------------------- submissions
    def _fill(self) -> bool:
        """Feed the pool; False when it is broken.

        A crash suspect runs only alone, and fresh work from ``pending``
        waits until the quarantine is empty.
        """
        if self.quarantine:
            if not self.flight:
                return self._submit(self.quarantine.popleft())
            return True
        while self.pending and len(self.flight) < self.runner.max_workers:
            if not self._submit(self.pending.popleft()):
                return False
        return True

    def _submit(self, chunk: _Chunk) -> bool:
        """Submit one chunk; False means the pool is already broken."""
        try:
            future = self.pool.submit(_execute_chunk, tuple(spec for _, spec in chunk))
        except BrokenProcessPool:
            self.recovery["worker_crashes"] += 1
            self.quarantine.appendleft(chunk)
            return False
        except Exception:  # unpicklable chunk: run it in the driver
            self.runner._run_serial(list(chunk), self.results, self.writer)
            return True
        self.flight[future] = (chunk, self._chunk_deadline(chunk))
        return True

    def _chunk_deadline(self, chunk: _Chunk) -> Optional[float]:
        if self.runner.run_timeout is None:
            return None
        return time.monotonic() + self.runner.run_timeout * len(chunk)

    # --------------------------------------------------------------- completion
    def _finish(self, future: Any, flight_size: int) -> bool:
        """Settle one future; True when the pool broke under it."""
        chunk, _deadline = self.flight.pop(future)
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
        self._record_chunk(chunk, outcomes)
        return False

    def _record_chunk(self, chunk: _Chunk, outcomes: list[RunOutcome]) -> None:
        for (index, _spec), outcome in zip(chunk, outcomes):
            self.runner._record(index, outcome, self.results, self.writer)

    def _fail(self, chunk: _Chunk, kind: str) -> None:
        """Record every run of a definitively failed chunk as ``kind``."""
        if kind == "timeout":
            message = (
                f"run exceeded its {self.runner.run_timeout}s deadline "
                "(worker killed, pool respawned)"
            )
        else:
            message = "worker process died (pool respawned)"
        self._record_chunk(
            chunk,
            [
                RunOutcome(spec=spec, error=message, error_kind=kind)
                for _index, spec in chunk
            ],
        )

    # ----------------------------------------------------------------- recovery
    def _recover(self, innocents: deque[_Chunk]) -> bool:
        """Kill + respawn the pool; False when the sweep went serial.

        The chunks still in flight move to the front of ``innocents``:
        ``quarantine`` after a crash (every one is a suspect), ``pending``
        after a timeout kill (they are known innocent).
        """
        _kill_pool(self.pool)
        self.pool = None
        for _future, (chunk, _deadline) in reversed(list(self.flight.items())):
            innocents.appendleft(chunk)
        self.flight.clear()
        try:
            self.pool = self.runner._make_pool()
            return True
        except Exception:  # noqa: BLE001 - degrade, don't lose the sweep
            self._drain_serial()
            return False

    def _deadline_sweep(self) -> bool:
        """Expire overdue runs; False when recovery went serial."""
        if self.runner.run_timeout is None:
            return True
        now = time.monotonic()
        expired = [
            future
            for future, (_chunk, deadline) in self.flight.items()
            if deadline is not None and deadline <= now
        ]
        if not expired:
            return True
        for future in expired:
            chunk, _deadline = self.flight.pop(future)
            self.recovery["timeouts"] += 1
            self._fail(chunk, "timeout")
        return self._recover(self.pending)

    def _drain_serial(self) -> None:
        """Last resort: no pool can run, so the driver runs the rest."""
        runner = self.runner
        runner.last_execution_mode = "serial (process pool unavailable)"
        leftovers = [
            item
            for chunk in list(self.quarantine) + list(self.pending)
            for item in chunk
        ]
        self.quarantine.clear()
        self.pending.clear()
        runner._run_serial(leftovers, self.results, self.writer)

    def _wait_timeout(self) -> Optional[float]:
        """Seconds until the earliest in-flight chunk deadline, if any."""
        deadlines = [
            deadline
            for _chunk, deadline in self.flight.values()
            if deadline is not None
        ]
        if not deadlines:
            return None
        return max(0.01, min(deadlines) - time.monotonic())


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
