#!/usr/bin/env python3
"""Paired A/B of the benchmark of record against a git revision.

Runs ``perfbench/run.py`` (for the run length ``BENCHMARK.json`` sets) on
this checkout (A) and on a local ``git worktree`` of REV (B) in
alternating order — pair 1 runs A first, pair 2 runs B first, and so on —
so slow drifts of the machine hit both sides alike.  For every metric it
prints both medians, their ratio, the median and interquartile range of
the per-pair ratios (A's run over REV's run in the same pair), the
interquartile range of REV's runs, and how many pairs A won::

    python3 benchmarks/ab.py HEAD~1 --workload fleet --pairs 10

A metric counts as a gain when A wins at least nine pairs in ten and the
medians differ by more than REV's IQR (the rule a claimed gain must pass).

It is also the repository's regression gate (``make regression``).  Each
metric gets a verdict against the ``bound`` ``BENCHMARK.json`` declares
for it: ``regressed`` when A's median is worse than REV's by more than the
bound, ``unresolved`` when REV's own IQR/median exceeds the bound (the runs
spread too widely to tell) unless every A run beats every REV run, else
``ok``.  The exit status is 1 when any metric is not ``ok``.

Every run also records its child CPU seconds (``cpu_s``, not gated): a
whole-machine slow phase shows as wall time rising while CPU time does not.
Every run must print ``"correct": true``; a run that does not aborts the
comparison.  The worktree is created without network access and removed
on exit.  The last line of standard output is the comparison as JSON.

After the pairs, each side runs one traced pass (``--trace 1 --seconds 1``)
and the per-layer metrics are reported, not gated: a ``count`` metric
reads ``same`` or ``changed`` against REV, every other metric reads as
the ratio of A's value to REV's.  A change meant to leave the simulation
alone shows every count as ``same``.  The time ratios come from one
traced pass per side, and one pass can run slow throughout, so they
resolve only to about ±20%: they report where time went, but cannot
support a criterion such as "this layer's time does not move".
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Share of pairs A must win for a metric to count as a gain.
WIN_SHARE = 0.9


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(
    tree: str, args: argparse.Namespace, seconds: float, trace: bool = False
) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its metric values plus ``cpu_s``."""
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        args.workload,
        "--seconds",
        str(seconds),
    ]
    if trace:
        command += ["--trace", "1"]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    cpu_before = child_cpu_s()
    process = subprocess.run(
        command, cwd=tree, env=env, capture_output=True, text=True, check=False
    )
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {tree}:\n{process.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"incorrect run in {tree}: {lines[-2]}")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    values["cpu_s"] = child_cpu_s() - cpu_before
    return values


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(a: list[float], b: list[float], higher: bool, bound: float) -> str:
    """``regressed``, ``unresolved`` or ``ok`` for one metric (see module doc).

    A spread wider than the bound still reads ``ok`` when every run of A
    is better than every run of REV.
    """
    a_median, b_median = statistics.median(a), statistics.median(b)
    worse = b_median - a_median if higher else a_median - b_median
    if worse > bound * abs(b_median):
        return "regressed"
    q1, q3 = quartiles(b)
    if q3 - q1 > bound * abs(b_median):
        clear_win = min(a) > max(b) if higher else max(a) < min(b)
        return "ok" if clear_win else "unresolved"
    return "ok"


def compare(a_runs: list[dict], b_runs: list[dict], declared: dict) -> dict:
    """Per-metric medians, the per-pair ratios' median and IQR, REV's IQR,
    A's pair wins and the gate's verdict.

    ``declared`` maps each compared metric to its ``better`` direction and
    ``bound``; run entries it does not name (``cpu_s``) are not compared.
    """
    report = {}
    for name in a_runs[0]:
        if name not in declared:
            continue
        a = [run[name] for run in a_runs]
        b = [run[name] for run in b_runs]
        higher = declared[name]["better"] == "higher"
        wins = sum(1 for x, y in zip(a, b) if (x > y if higher else x < y))
        a_median, b_median = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(b)
        iqr = q3 - q1
        # Each pair's A/B ratio; a pair whose REV value is zero has none.
        ratios = [x / y for x, y in zip(a, b) if y]
        pair_median = pair_iqr = None
        if ratios:
            r1, r3 = quartiles(ratios)
            pair_median, pair_iqr = statistics.median(ratios), r3 - r1
        gained = a_median > b_median if higher else a_median < b_median
        report[name] = {
            "a_median": a_median,
            "b_median": b_median,
            "ratio": a_median / b_median if b_median else None,
            "pair_ratio_median": pair_median,
            "pair_ratio_iqr": pair_iqr,
            "b_iqr": iqr,
            "wins": wins,
            "pairs": len(a),
            "gain": gained
            and wins >= WIN_SHARE * len(a)
            and abs(a_median - b_median) > iqr,
            "verdict": verdict(a, b, higher, declared[name]["bound"]),
        }
    return report


def per_layer(a: dict, b: dict, declared: list[dict]) -> dict:
    """The per-layer report of one traced pass per side (see module doc).

    ``declared`` is ``BENCHMARK.json``'s ``per_layer`` list; metrics
    missing from either side are skipped.  A ratio against a zero REV
    value is ``None``.
    """
    report = {}
    for entry in declared:
        name = entry["name"]
        if name not in a or name not in b:
            continue
        row = {"a": a[name], "b": b[name]}
        if entry["unit"] == "count":
            row["verdict"] = "same" if a[name] == b[name] else "changed"
        else:
            row["ratio"] = a[name] / b[name] if b[name] else None
        report[name] = row
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
    # Run length, metric directions and bounds are the benchmark's own.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    declared = {entry["name"]: entry for entry in benchmark["end_to_end"]}

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
                runs.append(run_once(side, args, benchmark["run_seconds"]))
            print(
                f"pair {pair + 1}/{args.pairs}: "
                + ", ".join(
                    f"{name} {a_runs[-1][name]:.4g} vs {b_runs[-1][name]:.4g}"
                    for name in a_runs[-1]
                ),
                file=sys.stderr,
            )
        a_traced = run_once(ROOT, args, 1, trace=True)
        b_traced = run_once(tree, args, 1, trace=True)
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", tree], cwd=ROOT, check=False
        )
        shutil.rmtree(workdir, ignore_errors=True)

    report = compare(a_runs, b_runs, declared)
    for name, row in report.items():
        ratio = "n/a" if row["ratio"] is None else f"x{row['ratio']:.3f}"
        pairs = (
            "n/a"
            if row["pair_ratio_median"] is None
            else f"x{row['pair_ratio_median']:.3f} IQR {row['pair_ratio_iqr']:.3f}"
        )
        print(
            f"{name:32s} A {row['a_median']:.4g}  B {row['b_median']:.4g}  "
            f"{ratio}  pairs {pairs}  B IQR {row['b_iqr']:.3g}  "
            f"wins {row['wins']}/{row['pairs']}"
            f"  {row['verdict']}" + ("  GAIN" if row["gain"] else "")
        )
    layers = per_layer(a_traced, b_traced, benchmark["per_layer"])
    for name, row in layers.items():
        if "verdict" in row:
            print(f"{name:32s} A {row['a']}  B {row['b']}  {row['verdict']}")
        else:
            ratio = "n/a" if row["ratio"] is None else f"x{row['ratio']:.3f}"
            print(f"{name:32s} A {row['a']:.4g}  B {row['b']:.4g}  {ratio}")
    failing = sorted(name for name, row in report.items() if row["verdict"] != "ok")
    print(
        json.dumps(
            {
                "workload": args.workload,
                "rev": args.rev,
                "pairs": args.pairs,
                "metrics": report,
                "a_runs": a_runs,
                "b_runs": b_runs,
                "per_layer": layers,
                "failing": failing,
            }
        )
    )
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
