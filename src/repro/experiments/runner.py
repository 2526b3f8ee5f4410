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
Every failure carries a typed ``error_kind`` on its :class:`RunOutcome`.
Runs have no deadline: a scenario is a deterministic simulation, so one
that stalls stalls on every rerun.  Sweeps are made durable by writing
through the run store of :mod:`repro.experiments.store` (manifests +
fsynced segments) via :meth:`ExperimentRunner.run_stored`, and later
:meth:`resumed <ExperimentRunner.resume_stored>`: finished specs are
skipped and the combined outcome list is identical to an
uninterrupted run (scenarios are pure functions of their spec, so
re-executing the unfinished tail reproduces exactly what the interrupted
run would have produced).  Cancellation is graceful: SIGINT raises
:class:`SweepCancelled` *after* every finished outcome has been flushed
and fsynced, so a resume continues from the cancellation point — which
is also how a stalled sweep is stopped and picked up again.  So does
a crash after which no pool can respawn: its suspects never run in the
driver, they stay unrecorded for a resume to re-run in a fresh pool.
"""

from __future__ import annotations

import logging
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import product
from typing import Any, Iterable, Optional, Sequence

from repro.experiments.store import RepairEvent, RunStore, SweepWriter

#: The typed error taxonomy carried by ``RunOutcome.error_kind``:
#:
#: * ``scenario-error`` — the scenario function raised (or, in a pool, its
#:   spec could not be pickled).
#: * ``worker-crash`` — the worker process died (OOM kill, segfault,
#:   ``BrokenProcessPool``) while the chunk ran alone in the pool, so the
#:   crash is attributed to that chunk exactly (see :class:`_PoolEngine`).
#:
#: Sweeps stored by older versions may also hold ``timeout`` records; the
#: store loads any kind as written.
ERROR_KINDS = ("scenario-error", "worker-crash")


_logger = logging.getLogger(__name__)


class SweepCancelled(RuntimeError):
    """A sweep stopped early — gracefully — on SIGINT, or because crash
    suspects were left unrun when no process pool could respawn.

    Every outcome that finished before the cancellation was already
    flushed (and fsynced) to the run store, so
    :meth:`ExperimentRunner.resume_stored` continues exactly from the
    cancellation point.  The finished outcomes ride on the exception as
    ``outcomes`` (``{spec index: RunOutcome}``).
    """

    def __init__(
        self, results: dict[int, "RunOutcome"], total: int, reason: str = "SIGINT"
    ) -> None:
        self.outcomes = {index: results[index] for index in sorted(results)}
        self.completed = len(results)
        self.total = total
        super().__init__(
            f"sweep cancelled ({reason}) after {self.completed}/{total} runs; "
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
    (pickling, dispatch).  Top-level, hence picklable.
    """
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


#: A contiguous slice of the grid scheduled as one pool task:
#: ``(declaration index, spec)`` pairs.
_Chunk = tuple[tuple[int, RunSpec], ...]


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a broken pool's workers and abandon it."""
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
        uses a ``ProcessPoolExecutor``; if the pool cannot be created, the
        runner falls back to serial execution rather than failing the
        sweep.  Every sweep goes through the pool, even one of a single
        spec, so a scenario that kills its process never takes the driver
        down.  A spec that fails to pickle fails alone with its pickling
        error (kind ``"scenario-error"``).  A worker crash respawns the
        pool and re-runs the chunks that were in flight one at a time, so
        only the chunk that crashed alone fails (kind ``"worker-crash"``).
        Pool sweeps submit the grid in contiguous chunks of
        ``ceil(len(specs) / (4 * workers))`` scenarios — large enough to
        amortise dispatch, small enough to load-balance a heterogeneous
        grid.

    Runs have no deadline.  SIGINT (``KeyboardInterrupt``) cancels a
    sweep gracefully — the way to stop one that stalls: every finished
    outcome is already flushed, and :class:`SweepCancelled` carries the
    partial results (``resume_stored()`` continues from them).
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        #: "serial" or "processes[N] chunks[M]" — how the last sweep ran.
        self.last_execution_mode: str = "serial"
        #: Crash counter from the last pool sweep (see :class:`_PoolEngine`);
        #: empty for serial sweeps.
        self.last_recovery: dict[str, Any] = {}
        #: The sweep id of the last run_stored()/resume_stored() sweep.
        self.last_sweep_id: Optional[str] = None

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
        metadata: Optional[dict[str, Any]] = None,
    ) -> list[RunOutcome]:
        """Execute a sweep writing through a durable
        :class:`~repro.experiments.store.RunStore`.

        The sweep's manifest (spec list, seed, git revision)
        commits atomically before the first run; every finished outcome
        appends to an fsynced segment as it completes.  On success the
        manifest is stamped ``complete``; graceful cancellation stamps
        ``cancelled`` (and :meth:`resume_stored` continues the sweep);
        any other failure stamps ``failed``.  The sweep id lands in
        :attr:`last_sweep_id`.
        """
        specs = list(specs)
        writer = store.begin_sweep(
            name,
            specs,
            sweep_id=sweep_id,
            seed=seed,
            metadata=metadata,
        )
        self.last_sweep_id = writer.sweep_id
        return self._run_through_store(store, writer.sweep_id, specs, writer, {})

    def resume_stored(
        self,
        store: RunStore,
        sweep_id: str,
        specs: Optional[Sequence[RunSpec]] = None,
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
        return self._run_through_store(store, sweep_id, specs, writer, done)

    def _run_through_store(
        self,
        store: RunStore,
        sweep_id: str,
        specs: list[RunSpec],
        writer: SweepWriter,
        done: dict[int, RunOutcome],
    ) -> list[RunOutcome]:
        try:
            outcomes = self._run(specs, writer, done)
        except SweepCancelled:
            store.finish_sweep(sweep_id, "cancelled")
            raise
        except BaseException:
            store.finish_sweep(sweep_id, "failed")
            raise
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
                if self.max_workers == 1 or not remaining:
                    self.last_execution_mode = "serial"
                    self._run_serial(remaining, results, writer)
                else:
                    _PoolEngine(self, remaining, results, writer).run()
            except KeyboardInterrupt:
                # Graceful cancellation: every finished outcome is already
                # flushed and fsynced; resume_stored() continues from them.
                raise SweepCancelled(results, len(specs)) from None
            if len(results) < len(specs):
                raise SweepCancelled(
                    results, len(specs), "crash suspects unrun: no pool could respawn"
                )
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

    def _run_serial(
        self,
        remaining: list[tuple[int, RunSpec]],
        results: dict[int, RunOutcome],
        writer: Optional[SweepWriter],
    ) -> None:
        for index, spec in remaining:
            self._record(index, _execute(spec), results, writer)

    # ------------------------------------------------------------- pool engine
    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.max_workers)

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

    When no pool can start or respawn, the driver runs the chunks that
    never flew serially; crash suspects never run in the driver (one that
    really crashes would take the driver down with it), so they stay
    unrecorded and the sweep ends in :class:`SweepCancelled`.  The crash
    counter lands in :attr:`ExperimentRunner.last_recovery`.  Chunks have
    no deadline: the drain waits for the first of the in-flight chunks to
    settle, and a stalled one holds its worker until SIGINT.
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
        self.flight: dict[Any, _Chunk] = {}
        self.pool: Optional[ProcessPoolExecutor] = None
        self.recovery: dict[str, Any] = {"worker_crashes": 0}

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
                if not self._recover():
                    return
                continue
            if not self.flight:
                continue
            completed, _running = wait(set(self.flight), return_when=FIRST_COMPLETED)
            flight_size = len(self.flight)
            crashed = False
            for future in completed:
                crashed = self._finish(future, flight_size) or crashed
            if crashed:
                # A broken pool takes every in-flight sibling with it; the
                # break counts once, however many futures it failed.
                self.recovery["worker_crashes"] += 1
                if not self._recover():
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
        self.flight[future] = chunk
        return True

    # --------------------------------------------------------------- completion
    def _finish(self, future: Any, flight_size: int) -> bool:
        """Settle one future; True when the pool broke under it."""
        chunk = self.flight.pop(future)
        try:
            outcomes = future.result()
        except BrokenProcessPool:
            if flight_size == 1:
                # It had the pool to itself: definitive culprit.
                self._fail(chunk, "worker-crash")
            else:
                self.quarantine.appendleft(chunk)
            return True
        except Exception as exc:  # e.g. an unpicklable spec; the pool still works
            self._fail(chunk, "scenario-error", f"{type(exc).__name__}: {exc}")
            return False
        self._record_chunk(chunk, outcomes)
        return False

    def _record_chunk(self, chunk: _Chunk, outcomes: list[RunOutcome]) -> None:
        for (index, _spec), outcome in zip(chunk, outcomes):
            self.runner._record(index, outcome, self.results, self.writer)

    def _fail(
        self,
        chunk: _Chunk,
        kind: str,
        message: str = "worker process died (pool respawned)",
    ) -> None:
        """Record every run of a definitively failed chunk as ``kind``."""
        self._record_chunk(
            chunk,
            [
                RunOutcome(spec=spec, error=message, error_kind=kind)
                for _index, spec in chunk
            ],
        )

    # ----------------------------------------------------------------- recovery
    def _recover(self) -> bool:
        """Kill + respawn the pool; False when the sweep went serial.

        The chunks still in flight are crash suspects: they move to the
        front of ``quarantine``.
        """
        _kill_pool(self.pool)
        self.pool = None
        for chunk in reversed(list(self.flight.values())):
            self.quarantine.appendleft(chunk)
        self.flight.clear()
        try:
            self.pool = self.runner._make_pool()
            return True
        except Exception:  # noqa: BLE001 - degrade, don't lose the sweep
            self._drain_serial()
            return False

    def _drain_serial(self) -> None:
        """Last resort: no pool can run, so the driver runs ``pending``.

        Crash suspects stay in ``quarantine``, unrecorded: the caller ends
        the sweep with :class:`SweepCancelled` and a resume re-runs them
        in a fresh pool.
        """
        runner = self.runner
        runner.last_execution_mode = "serial (process pool unavailable)"
        leftovers = [item for chunk in self.pending for item in chunk]
        self.pending.clear()
        runner._run_serial(leftovers, self.results, self.writer)
