#!/usr/bin/env python3
"""Paired A/B of the benchmark of record against a git revision.

Runs ``perfbench/run.py`` (for the run length ``BENCHMARK.json`` sets) on
this checkout (A) and on a local ``git worktree`` of REV (B) in
alternating order — pair 1 runs A first, pair 2 runs B first, and so on —
so slow drifts of the machine hit both sides alike.  For every metric it
prints both medians, their ratio, the interquartile range of REV's runs,
and how many pairs A won::

    python3 benchmarks/ab.py HEAD~1 --workload fleet --pairs 10

A metric counts as a gain when A wins at least nine pairs in ten and the
medians differ by more than REV's IQR (the rule a claimed gain must pass).
Every run must print ``"correct": true``; a run that does not aborts the
comparison.  The worktree is created without network access and removed
on exit.  The last line of standard output is the comparison as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Share of pairs A must win for a metric to count as a gain.
WIN_SHARE = 0.9


def run_once(tree: str, args: argparse.Namespace, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; returns its metric values."""
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        args.workload,
        "--seconds",
        str(seconds),
    ]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    process = subprocess.run(
        command, cwd=tree, env=env, capture_output=True, text=True, check=False
    )
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {tree}:\n{process.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"incorrect run in {tree}: {lines[-2]}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(a_runs: list[dict], b_runs: list[dict], better: dict) -> dict:
    """Per-metric medians, REV's IQR and A's pair wins."""
    report = {}
    for name in a_runs[0]:
        a = [run[name] for run in a_runs]
        b = [run[name] for run in b_runs]
        higher = better.get(name, "lower") == "higher"
        wins = sum(1 for x, y in zip(a, b) if (x > y if higher else x < y))
        a_median, b_median = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(b)
        iqr = q3 - q1
        gained = a_median > b_median if higher else a_median < b_median
        report[name] = {
            "a_median": a_median,
            "b_median": b_median,
            "ratio": a_median / b_median if b_median else None,
            "b_iqr": iqr,
            "wins": wins,
            "pairs": len(a),
            "gain": gained
            and wins >= WIN_SHARE * len(a)
            and abs(a_median - b_median) > iqr,
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against (B)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    # Run length and metric directions are the benchmark's own.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    better = {entry["name"]: entry["better"] for entry in declared["end_to_end"]}

    workdir = tempfile.mkdtemp(prefix="perfbench-ab-")
    tree = os.path.join(workdir, "rev")
    subprocess.run(
        ["git", "worktree", "add", "--detach", tree, args.rev],
        cwd=ROOT,
        check=True,
        capture_output=True,
    )
    try:
        a_runs: list[dict] = []
        b_runs: list[dict] = []
        for pair in range(args.pairs):
            order = ((ROOT, a_runs), (tree, b_runs))
            for side, runs in order if pair % 2 == 0 else order[::-1]:
                runs.append(run_once(side, args, declared["run_seconds"]))
            print(
                f"pair {pair + 1}/{args.pairs}: "
                + ", ".join(
                    f"{name} {a_runs[-1][name]:.4g} vs {b_runs[-1][name]:.4g}"
                    for name in a_runs[-1]
                ),
                file=sys.stderr,
            )
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", tree], cwd=ROOT, check=False
        )
        shutil.rmtree(workdir, ignore_errors=True)

    report = compare(a_runs, b_runs, better)
    for name, row in report.items():
        ratio = "n/a" if row["ratio"] is None else f"x{row['ratio']:.3f}"
        print(
            f"{name:32s} A {row['a_median']:.4g}  B {row['b_median']:.4g}  "
            f"{ratio}  B IQR {row['b_iqr']:.3g}  wins {row['wins']}/{row['pairs']}"
            + ("  GAIN" if row["gain"] else "")
        )
    print(
        json.dumps(
            {
                "workload": args.workload,
                "rev": args.rev,
                "pairs": args.pairs,
                "metrics": report,
                "a_runs": a_runs,
                "b_runs": b_runs,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
