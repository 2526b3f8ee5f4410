"""Run-store command line: ``python -m repro.experiments fsck|report …``.

``fsck ROOT [--repair] [--allow-missing]`` validates (and repairs) a run
store; ``report ROOT [SWEEP_ID]`` lists its sweeps or renders one sweep's
run table.  ``make store-fsck`` wraps ``fsck``.

The command lives in the package's ``__main__`` rather than in
:mod:`repro.experiments.store`: the package ``__init__`` imports ``store``,
so running that module with ``-m`` would execute it a second time.
"""

from __future__ import annotations

import argparse
import os
from typing import Optional

from repro.experiments.store import RunStore, StoreError


def main(argv: Optional[list[str]] = None) -> int:
    """``python -m repro.experiments`` — fsck / report."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Validate, repair and report on a run store.",
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
