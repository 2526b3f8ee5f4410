"""Durable, append-only experiment run store: manifests + JSONL segments.

Population-scale sweeps run for hours and die in ugly ways — worker
crashes, host stalls, ``kill -9`` mid-write.  This module is the data plane
that survives all of them.  A *sweep* lives in its own directory under the
store root:

.. code-block:: text

    <root>/
      <sweep-id>/
        MANIFEST.json        # spec list, seed, git rev, metadata, status
        segment-0001.jsonl   # append-only records, fsynced per line
        segment-0002.jsonl   # one new segment per resume (or size roll)

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
* **Compaction folds a sweep's segments into one** — outcome records
  dedupe by spec index (last write wins, matching loader semantics); the
  merged segment is written and renamed before the old segments are
  unlinked, so a crash mid-compaction leaves duplicates (harmless), never
  data loss.

The runner writes through this store via
:meth:`repro.experiments.runner.ExperimentRunner.run_stored`, and
:mod:`repro.measurement.report` renders sweep reports from its query APIs.

Run ``python -m repro.experiments.store fsck <root>`` (also: ``compact``,
``report``) for the command-line surface; ``make store-fsck`` wraps it.
"""

from __future__ import annotations

import argparse
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

#: Segment size at which :class:`SweepWriter` rolls to a fresh file.
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024


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


@dataclass
class CompactionReport:
    """Before/after accounting for one :meth:`RunStore.compact` pass."""

    sweep_id: str
    segments_before: int = 0
    segments_after: int = 0
    records_before: int = 0
    records_after: int = 0

    def summary(self) -> str:
        return (
            f"compacted {self.sweep_id}: {self.segments_before} -> "
            f"{self.segments_after} segment(s), {self.records_before} -> "
            f"{self.records_after} record(s)"
        )


# ------------------------------------------------------------------ the store
class RunStore:
    """A directory of sweeps, each a manifest plus append-only segments."""

    def __init__(self, root: str, segment_bytes: int = DEFAULT_SEGMENT_BYTES) -> None:
        if segment_bytes < 1:
            raise ValueError(f"segment_bytes must be >= 1, got {segment_bytes}")
        self.root = root
        self.segment_bytes = segment_bytes
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
        continues one).
        """
        if sweep_id is None:
            sweep_id = f"{name}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
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
                continue  # generic (non-outcome) record
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

    def kind_records(
        self,
        sweep_id: str,
        kind: str,
        repairs: Optional[list[RepairEvent]] = None,
    ) -> list[dict[str, Any]]:
        """Free-form records of one ``kind``, in append order.

        Campaign drivers tag their derived records (phase aggregates,
        summaries) with a ``kind`` key; this filters them out of the mixed
        outcome/record stream without the caller re-implementing the scan.
        """
        return [
            record
            for record in self.records(sweep_id, repairs=repairs)
            if "index" not in record and record.get("kind") == kind
        ]

    # ------------------------------------------------------- fsck/compaction
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

    def compact(self, sweep_id: str) -> CompactionReport:
        """Fold all segments into one, deduping outcome records by index.

        Later records win (the loaders' rule), so a compacted sweep loads
        identically to the uncompacted one.  The merged segment is
        committed (write + fsync + rename) *before* the old segments are
        unlinked: a crash mid-compaction leaves duplicate records — which
        dedupe away on the next load or compaction — never missing ones.
        """
        paths = self._segment_paths(sweep_id)
        report = CompactionReport(sweep_id, segments_before=len(paths))
        by_index: dict[int, int] = {}
        merged: list[Optional[bytes]] = []
        for path in paths:
            records, raw, _events = _scan(path)
            for record, line in zip(records, raw):
                report.records_before += 1
                index = record.get("index")
                if isinstance(index, int):
                    previous = by_index.get(index)
                    if previous is not None:
                        merged[previous] = None  # superseded: later wins
                    by_index[index] = len(merged)
                merged.append(line)
        lines = [line for line in merged if line is not None]
        report.records_after = len(lines)
        if not paths:
            return report
        directory = self.sweep_dir(sweep_id)
        target = os.path.join(
            directory,
            f"{SEGMENT_PREFIX}{_next_segment_index(paths):04d}{SEGMENT_SUFFIX}",
        )
        tmp = f"{target}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle:
            handle.writelines(lines)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        _fsync_dir(directory)
        for path in paths:
            os.unlink(path)
        _fsync_dir(directory)
        report.segments_after = 1
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
    one, so a resume never writes after a possibly-damaged tail.  Rolls to
    a fresh segment when the current one crosses the store's
    ``segment_bytes``.  The runner appends each finished outcome through
    ``append(index, outcome)`` and calls ``close()`` when the sweep ends.
    """

    def __init__(self, store: RunStore, sweep_id: str) -> None:
        self.store = store
        self.sweep_id = sweep_id
        self._directory = store.sweep_dir(sweep_id)
        self._handle = None
        self._open_segment()

    def _open_segment(self) -> None:
        index = _next_segment_index(self.store._segment_paths(self.sweep_id))
        self.path = os.path.join(
            self._directory, f"{SEGMENT_PREFIX}{index:04d}{SEGMENT_SUFFIX}"
        )
        try:
            self._handle = open(self.path, "ab")
        except OSError as exc:
            raise StoreError(f"cannot open segment {self.path!r}: {exc}") from exc
        _fsync_dir(self._directory)

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
        if self._handle.tell() and self._handle.tell() + len(line) > (
            self.store.segment_bytes
        ):
            self._handle.close()
            self._open_segment()
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, index: int, outcome: Any) -> None:
        """Append one finished run outcome (the runner's per-run record)."""
        self.append_record(outcome_document(index, outcome))

    def append_aggregate(
        self,
        cell: dict[str, Any],
        aggregate: dict[str, Any],
        kind: str = "population-aggregate",
    ) -> None:
        """Durably append one streaming-aggregate record.

        Population-scale sweeps fold thousands of per-client results into
        constant-memory aggregates (counts + fixed-bin histograms; see
        :mod:`repro.population.aggregate`) instead of carrying per-run dict
        payloads.  ``cell`` identifies the sweep cell the aggregate covers
        (e.g. the landscape axes values); the record has no ``index`` so
        outcome loaders skip it and ``sweep_report`` counts it as a metric
        sample.
        """
        self.append_record({"kind": kind, "cell": cell, "aggregate": aggregate})

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ------------------------------------------------------------------------ CLI
def main(argv: Optional[list[str]] = None) -> int:
    """``python -m repro.experiments.store`` — fsck / compact / report."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments.store", description=__doc__.split("\n\n")[0]
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fsck_cmd = commands.add_parser("fsck", help="validate (and repair) a store")
    fsck_cmd.add_argument("root", help="store root directory")
    fsck_cmd.add_argument(
        "--repair", action="store_true", help="rewrite damaged segments"
    )
    fsck_cmd.add_argument(
        "--allow-missing",
        action="store_true",
        help="exit 0 when the store root does not exist",
    )

    compact_cmd = commands.add_parser(
        "compact", help="fold a sweep's segments into one"
    )
    compact_cmd.add_argument("root")
    compact_cmd.add_argument("sweep_id")

    report_cmd = commands.add_parser(
        "report", help="list sweeps, or render one sweep's run table"
    )
    report_cmd.add_argument("root")
    report_cmd.add_argument("sweep_id", nargs="?", default=None)

    args = parser.parse_args(argv)
    if not os.path.isdir(args.root):
        if args.command == "fsck" and args.allow_missing:
            print(f"no store at {args.root}; nothing to check")
            return 0
        print(f"error: no store at {args.root}", flush=True)
        return 2

    store = RunStore(args.root)
    if args.command == "fsck":
        report = store.fsck(repair=args.repair)
        for event in report.repaired:
            verb = "dropped" if args.repair else "found"
            print(f"  {verb}: {event}")
        for path in report.removed_files:
            print(f"  removed: {path}")
        for error in report.errors:
            print(f"  ERROR: {error}")
        print(report.summary())
        return 0 if report.ok else 1
    if args.command == "compact":
        try:
            print(store.compact(args.sweep_id).summary())
        except StoreError as exc:
            print(f"error: {exc}")
            return 2
        return 0
    # report
    from repro.measurement.report import sweep_report

    if args.sweep_id is None:
        for sweep_id in store.sweeps():
            manifest = store.manifest(sweep_id)
            count = len(store.records(sweep_id))
            print(
                f"{sweep_id}: {manifest.get('name')} "
                f"[{manifest.get('status')}] {count} record(s)"
            )
        return 0
    try:
        print(sweep_report(store.manifest(args.sweep_id), store.records(args.sweep_id)))
    except StoreError as exc:
        print(f"error: {exc}")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
