"""Durable, append-only experiment run store: manifests + JSONL segments.

Population-scale sweeps run for hours and die in ugly ways — worker
crashes, host stalls, ``kill -9`` mid-write.  This module is the data plane
that survives all of them.  A *sweep* lives in its own directory under the
store root:

.. code-block:: text

    <root>/
      <sweep-id>/
        MANIFEST.json        # spec list, seed, git rev, metadata, status
        segment-0001.jsonl   # append-only outcome records, fsynced per line
        segment-0002.jsonl   # one new segment per resume

Durability contract:

* **Manifests commit atomically** — written to a temp file in the same
  directory, fsynced, then ``os.replace``'d into place (plus a directory
  fsync), so a manifest is either the old document or the new one, never a
  half-written hybrid.
* **Records append with ``flush`` + ``fsync``** — a sweep killed at any
  instant loses at most the single line being written.
* **Torn and corrupt records are repairable, anywhere in a segment** — not
  just the tail.  :func:`scan_records` tolerates a torn final line (kill
  mid-write), undecodable lines mid-file (disk corruption), and
  NUL-padded holes (filesystem truncation after a crash); every skipped
  line is reported as a :class:`RepairEvent`, and :func:`repair_segment`
  rewrites the segment without them (valid lines are preserved
  byte-for-byte, so repaired records stay bit-identical).
* **``fsck`` validates the whole store** — manifest schemas, record
  decodability, and (for sweeps with a recorded spec list) that every
  outcome record matches the manifest's spec at its index.  With
  ``repair=True`` it rewrites damaged segments, drops stale temp files and
  empty segments, and the store comes back clean.
* **Outcome records are the only records a sweep writes** — landscape
  grids and campaign timelines are computed from them.  A resume may
  re-record an index; the loaders take the later record.

The runner writes through this store via
:meth:`repro.experiments.runner.ExperimentRunner.run_stored`, and
:mod:`repro.measurement.report` renders sweep reports from its query APIs.

Run ``python -m repro.experiments fsck <root>`` (also: ``report``) for
the command-line surface (:mod:`repro.experiments.__main__`);
``make store-fsck`` wraps it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

#: Store layout / record schema version, recorded in every manifest.
STORE_SCHEMA = "repro-store/1"

MANIFEST_NAME = "MANIFEST.json"
SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".jsonl"


class StoreError(RuntimeError):
    """The run store is missing, corrupt beyond repair, or misused."""


# ----------------------------------------------------------------- primitives
def _fsync_dir(path: str) -> None:
    """Flush directory metadata (new/renamed files) to disk, best effort."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_json(path: str, document: dict) -> None:
    """Commit ``document`` to ``path`` via write-temp + fsync + rename."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path) or ".")


def git_revision() -> Optional[str]:
    """The repository HEAD revision, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


@dataclass(frozen=True)
class RepairEvent:
    """One unreadable record found (and possibly dropped) in a segment."""

    path: str
    line_number: int
    #: ``torn-tail`` (kill mid-write), ``corrupt-record`` (undecodable
    #: line mid-file, including NUL-padded truncation holes), or
    #: ``not-an-object`` (valid JSON that is not a record).
    reason: str
    fragment: str

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line_number}: {self.reason} "
            f"({self.fragment[:60]!r})"
        )


def _scan(path: str) -> tuple[list[dict], list[bytes], list[RepairEvent]]:
    """Parse a segment into (records, their raw lines, repair events)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], [], []
    records: list[dict] = []
    raw: list[bytes] = []
    repairs: list[RepairEvent] = []
    if not data:
        return records, raw, repairs
    torn = not data.endswith(b"\n")
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    for number, line in enumerate(lines, start=1):
        stripped = line.strip(b" \t\r\x00")
        if not stripped:
            if b"\x00" in line:
                repairs.append(
                    RepairEvent(path, number, "corrupt-record", "<NUL hole>")
                )
            continue
        is_tail = torn and number == len(lines)
        try:
            record = json.loads(stripped)
        except (json.JSONDecodeError, UnicodeDecodeError):
            fragment = stripped[:60].decode("utf-8", "replace")
            reason = "torn-tail" if is_tail else "corrupt-record"
            repairs.append(RepairEvent(path, number, reason, fragment))
            continue
        if is_tail:
            # A final line without its newline may still parse (the kill
            # landed between write and flush of the terminator) — keep the
            # record but normalise the terminator on repair.
            repairs.append(
                RepairEvent(path, number, "torn-tail", "<missing newline>")
            )
            if isinstance(record, dict):
                records.append(record)
                raw.append(stripped + b"\n")
            continue
        if not isinstance(record, dict):
            repairs.append(
                RepairEvent(
                    path,
                    number,
                    "not-an-object",
                    stripped[:60].decode("utf-8", "replace"),
                )
            )
            continue
        records.append(record)
        raw.append(line + b"\n")
    return records, raw, repairs


def scan_records(path: str) -> tuple[list[dict], list[RepairEvent]]:
    """Read every salvageable record from a segment, reporting the damage.

    Tolerates — and reports — corruption *anywhere* in the file: a torn
    final line, undecodable lines mid-file, NUL-padded truncation holes,
    and non-object JSON lines.  A missing file reads as empty.
    """
    records, _raw, repairs = _scan(path)
    return records, repairs


def repair_segment(path: str) -> list[RepairEvent]:
    """Rewrite ``path`` without its damaged lines; returns what was dropped.

    Valid lines are preserved byte-for-byte (no re-serialisation), so the
    surviving records stay bit-identical.  The rewrite goes through a temp
    file + rename so a crash mid-repair cannot make the damage worse.  A
    clean segment is left untouched.
    """
    records, raw, repairs = _scan(path)
    if not repairs:
        return []
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.writelines(raw)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path) or ".")
    return repairs


def spec_document(spec: Any) -> dict[str, Any]:
    """The JSON shape a :class:`~repro.experiments.runner.RunSpec` takes."""
    return {
        "scenario": spec.scenario,
        "params": [[name, value] for name, value in spec.params],
    }


def spec_from_document(document: dict[str, Any]) -> Any:
    """Rebuild a :class:`~repro.experiments.runner.RunSpec` from JSON."""
    from repro.experiments.runner import RunSpec

    return RunSpec(
        scenario=document["scenario"],
        params=tuple((name, value) for name, value in document["params"]),
    )


def outcome_document(index: int, outcome: Any) -> dict[str, Any]:
    """The JSON record shape of one finished run in a sweep segment."""
    return {
        "index": index,
        "spec": spec_document(outcome.spec),
        "result": outcome.result,
        "wall_time": outcome.wall_time,
        "error": outcome.error,
        "error_kind": outcome.error_kind,
    }


# -------------------------------------------------------------------- reports
@dataclass
class FsckReport:
    """What an :meth:`RunStore.fsck` pass found (and fixed, under repair)."""

    sweeps: int = 0
    segments: int = 0
    records: int = 0
    #: Damaged lines found; under ``repair=True`` these were dropped and
    #: the segments rewritten.
    repaired: list[RepairEvent] = field(default_factory=list)
    #: Unrepairable problems: unreadable manifests, records whose spec
    #: contradicts the manifest, out-of-range indices.
    errors: list[str] = field(default_factory=list)
    #: Stale temp files / empty segments removed (repair mode only).
    removed_files: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing unrepairable was found.

        Torn/corrupt records are expected crash damage — the loaders skip
        them and ``repair=True`` removes them — so they do not fail fsck.
        """
        return not self.errors

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.errors)} error(s)"
        return (
            f"fsck: {self.sweeps} sweep(s), {self.segments} segment(s), "
            f"{self.records} record(s), {len(self.repaired)} damaged "
            f"line(s), {len(self.removed_files)} file(s) removed — {status}"
        )


# ------------------------------------------------------------------ the store
class RunStore:
    """A directory of sweeps, each a manifest plus append-only segments."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------- locations
    def sweep_dir(self, sweep_id: str) -> str:
        if not sweep_id or os.sep in sweep_id or sweep_id in (".", ".."):
            raise StoreError(f"invalid sweep id {sweep_id!r}")
        return os.path.join(self.root, sweep_id)

    def _manifest_path(self, sweep_id: str) -> str:
        return os.path.join(self.sweep_dir(sweep_id), MANIFEST_NAME)

    def _segment_paths(self, sweep_id: str) -> list[str]:
        directory = self.sweep_dir(sweep_id)
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return []
        segments = [
            name
            for name in names
            if name.startswith(SEGMENT_PREFIX)
            and name.endswith(SEGMENT_SUFFIX)
            and ".tmp." not in name
        ]
        return [os.path.join(directory, name) for name in sorted(segments)]

    def sweeps(self) -> list[str]:
        """Sweep ids present in the store (directories with a manifest)."""
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return []
        return sorted(
            name
            for name in names
            if os.path.isfile(os.path.join(self.root, name, MANIFEST_NAME))
        )

    # ------------------------------------------------------------- manifests
    def manifest(self, sweep_id: str) -> dict[str, Any]:
        """The sweep's manifest document (raises :class:`StoreError`)."""
        path = self._manifest_path(sweep_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except FileNotFoundError:
            raise StoreError(f"sweep {sweep_id!r} has no manifest at {path}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"manifest {path} is unreadable: {exc}") from exc
        if not isinstance(document, dict):
            raise StoreError(f"manifest {path} is not a JSON object")
        return document

    def _update_manifest(self, sweep_id: str, **fields: Any) -> dict[str, Any]:
        document = self.manifest(sweep_id)
        document.update(fields)
        atomic_write_json(self._manifest_path(sweep_id), document)
        return document

    def specs(self, sweep_id: str) -> list[Any]:
        """The sweep's declared :class:`RunSpec` list, from its manifest."""
        documents = self.manifest(sweep_id).get("specs")
        if documents is None:
            raise StoreError(
                f"sweep {sweep_id!r} recorded no spec list; pass specs explicitly"
            )
        return [spec_from_document(document) for document in documents]

    # --------------------------------------------------------------- writing
    def begin_sweep(
        self,
        name: str,
        specs: Optional[Sequence[Any]] = None,
        *,
        sweep_id: Optional[str] = None,
        seed: Optional[int] = None,
        metadata: Optional[dict[str, Any]] = None,
    ) -> "SweepWriter":
        """Create a sweep: commit its manifest, open its first segment.

        The manifest freezes everything needed to reproduce or resume the
        sweep — the full spec list, the seed, the git revision, the
        caller's metadata — and lands atomically before the first record is
        written.  An existing sweep id is refused (:meth:`open_sweep`
        continues one).  A generated id (``name``, the time to the second,
        the pid) gets a ``-2``, ``-3``, … suffix until its directory is
        free, so two sweeps begun within one second do not collide.
        """
        if sweep_id is None:
            base = f"{name}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
            sweep_id, suffix = base, 1
            while os.path.exists(self.sweep_dir(sweep_id)):
                suffix += 1
                sweep_id = f"{base}-{suffix}"
        directory = self.sweep_dir(sweep_id)
        if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
            raise StoreError(
                f"sweep {sweep_id!r} already exists; open_sweep() continues it"
            )
        os.makedirs(directory, exist_ok=True)
        manifest = {
            "schema": STORE_SCHEMA,
            "sweep_id": sweep_id,
            "name": name,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "git_revision": git_revision(),
            "python": platform.python_version(),
            "status": "running",
            "seed": seed,
            "metadata": metadata or {},
            "specs": None if specs is None else [spec_document(s) for s in specs],
        }
        atomic_write_json(os.path.join(directory, MANIFEST_NAME), manifest)
        return SweepWriter(self, sweep_id)

    def open_sweep(self, sweep_id: str) -> "SweepWriter":
        """Continue an existing sweep, appending into a fresh segment.

        A new segment per open means a resume never appends to a file a
        crash may have damaged — the damaged tail stays where it is (the
        loaders skip it; ``fsck --repair`` removes it).
        """
        self.manifest(sweep_id)  # validates existence
        return SweepWriter(self, sweep_id)

    def finish_sweep(self, sweep_id: str, status: str = "complete") -> None:
        """Atomically mark the sweep's terminal status in its manifest."""
        self._update_manifest(
            sweep_id,
            status=status,
            finished_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        )

    # --------------------------------------------------------------- reading
    def records(
        self, sweep_id: str, repairs: Optional[list[RepairEvent]] = None
    ) -> list[dict[str, Any]]:
        """Every salvageable record, in append order across segments.

        Damage is skipped, never fatal; pass ``repairs`` to receive the
        :class:`RepairEvent` for each skipped line.
        """
        out: list[dict[str, Any]] = []
        for path in self._segment_paths(sweep_id):
            found, events = scan_records(path)
            out.extend(found)
            if repairs is not None:
                repairs.extend(events)
        return out

    def load_outcomes(
        self,
        sweep_id: str,
        specs: Optional[Sequence[Any]] = None,
        repairs: Optional[list[RepairEvent]] = None,
    ) -> dict[int, Any]:
        """Outcome records as ``{spec index: RunOutcome}``, validated.

        Indices must be in range, recorded specs must equal the declared
        ones (a mismatch means the records belong to a different sweep and
        raises :class:`StoreError`), and later records win over earlier
        ones (a resume re-runs a damaged record).  ``specs=None`` uses the
        manifest's spec list.  This is what
        :meth:`repro.experiments.runner.ExperimentRunner.resume_stored`
        skips on resume.
        """
        from repro.experiments.runner import RunOutcome

        if specs is None:
            specs = self.specs(sweep_id)
        specs = list(specs)
        expected = [
            json.loads(json.dumps(spec_document(spec))) for spec in specs
        ]
        done: dict[int, Any] = {}
        for entry in self.records(sweep_id, repairs=repairs):
            if "index" not in entry:
                continue  # a derived record, as older stores hold
            index = entry.get("index")
            if not isinstance(index, int) or not 0 <= index < len(specs):
                raise StoreError(
                    f"sweep {sweep_id!r}: record index {index!r} out of range "
                    f"for a sweep of {len(specs)} specs"
                )
            if entry.get("spec") != expected[index]:
                raise StoreError(
                    f"sweep {sweep_id!r}: recorded spec {entry.get('spec')!r} "
                    f"does not match {specs[index].label} — these records "
                    "belong to a different sweep"
                )
            done[index] = RunOutcome(
                spec=specs[index],
                result=entry.get("result"),
                wall_time=entry.get("wall_time", 0.0),
                error=entry.get("error"),
                error_kind=entry.get("error_kind"),
            )
        return done

    # ------------------------------------------------------------------ fsck
    def fsck(self, repair: bool = False) -> FsckReport:
        """Validate every sweep; with ``repair`` rewrite the damage away.

        Checks manifest readability and schema, scans every segment for
        torn/corrupt records, and — when the manifest froze a spec list —
        cross-checks each outcome record against it.  Repair mode drops
        damaged lines (byte-preserving rewrite), removes stale ``.tmp.``
        files and empty segments.
        """
        report = FsckReport()
        for sweep_id in self.sweeps():
            report.sweeps += 1
            directory = self.sweep_dir(sweep_id)
            try:
                manifest = self.manifest(sweep_id)
                schema = manifest.get("schema")
                if schema != STORE_SCHEMA:
                    report.errors.append(
                        f"{sweep_id}: manifest schema {schema!r} is not "
                        f"{STORE_SCHEMA!r}"
                    )
                    manifest = None
            except StoreError as exc:
                report.errors.append(str(exc))
                manifest = None
            if repair:
                for name in os.listdir(directory):
                    path = os.path.join(directory, name)
                    if ".tmp." in name:
                        os.unlink(path)
                        report.removed_files.append(path)
            for path in self._segment_paths(sweep_id):
                report.segments += 1
                if repair:
                    events = repair_segment(path)
                    records, _post = scan_records(path)
                else:
                    records, events = scan_records(path)
                report.repaired.extend(events)
                report.records += len(records)
                if repair and os.path.getsize(path) == 0:
                    os.unlink(path)
                    report.removed_files.append(path)
                    report.segments -= 1
            if manifest is not None and manifest.get("specs") is not None:
                try:
                    self.load_outcomes(sweep_id)
                except StoreError as exc:
                    report.errors.append(str(exc))
        return report


def _next_segment_index(paths: Sequence[str]) -> int:
    highest = 0
    for path in paths:
        name = os.path.basename(path)
        digits = name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
        try:
            highest = max(highest, int(digits))
        except ValueError:
            continue
    return highest + 1


class SweepWriter:
    """Fsynced append-only record sink for one sweep (one open segment).

    Opens a *new* segment (next index) rather than appending to the last
    one, so a resume never writes after a possibly-damaged tail.  The
    runner appends each finished outcome through ``append(index,
    outcome)`` and calls ``close()`` when the sweep ends.
    """

    def __init__(self, store: RunStore, sweep_id: str) -> None:
        self.sweep_id = sweep_id
        directory = store.sweep_dir(sweep_id)
        index = _next_segment_index(store._segment_paths(sweep_id))
        self.path = os.path.join(
            directory, f"{SEGMENT_PREFIX}{index:04d}{SEGMENT_SUFFIX}"
        )
        try:
            self._handle = open(self.path, "ab")
        except OSError as exc:
            raise StoreError(f"cannot open segment {self.path!r}: {exc}") from exc
        _fsync_dir(directory)

    def append_record(self, record: dict[str, Any]) -> None:
        """Durably append one JSON record (flush + fsync per line)."""
        if self._handle is None:
            raise StoreError(f"sweep {self.sweep_id!r} writer is closed")
        try:
            line = json.dumps(record).encode("utf-8") + b"\n"
        except (TypeError, ValueError) as exc:
            raise StoreError(
                f"record is not JSON-serialisable (the store holds only "
                f"JSON-safe documents): {exc}"
            ) from exc
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, index: int, outcome: Any) -> None:
        """Append one finished run outcome (the runner's per-run record)."""
        self.append_record(outcome_document(index, outcome))

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ------------------------------------------------------------------------ CLI
