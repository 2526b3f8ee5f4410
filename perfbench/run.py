#!/usr/bin/env python3
"""The repository's benchmark of record.

Regenerates one of four paper artefacts (``table2``, ``fleet``,
``landscape``, ``chaos``; see ``workloads.py``) pass after pass in this
process, checks every result, and prints the metrics as the last line of
standard output::

    python3 perfbench/run.py --workload table2 --seed 5 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median cold
start of a fresh interpreter up to the first pass), ``wall_s`` (median
wall seconds of one pass), ``client_h_per_s`` (simulated victim-hours
delivered per wall second) and ``peak_rss_mb``.  ``--trace 1`` runs the
same untraced passes, then one traced pass, and reports the per-layer
metrics (see ``spans.py``).  Untraced passes run for ``--seconds`` and at
least ``MIN_PASSES`` times.

A cell is one run-spec outcome.  It fails when it errors or when its
digest differs from the reference: the digest recorded in
``expected.json`` for that seed (``--write-expected`` records it), else
the first pass's digest.  ``failed / attempted`` in the result line is
the fail fraction.  Self-checks pin what makes each workload what it is.
Run from the root of a checkout; scratch output goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

MIN_PASSES = 3
SETUP_PROBES = 7
#: Store directories the program's smoke CLIs default to; no pass may create them.
REPO_STORES = (".population_smoke_store", ".chaos_campaign_store")
#: Traced-pass answer ratios bracketing "servers answer every spoofed query"
#: (landscape's fraction-0 row) against "servers rate-limit it" (table2).
ANSWERED_MIN = 0.9
RATE_LIMITED_MAX = 0.5
#: Workloads that write their cells through a run store.
STORED = ("landscape", "chaos")


def provenance() -> dict:
    """Where the numbers come from: never compare across machines."""
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
        revision = proc.stdout.strip() or None
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sources = hashlib.sha256()
    for path, dirs, names in os.walk(SRC):
        dirs.sort()
        for name in sorted(names):
            if name.endswith(".py"):
                with open(os.path.join(path, name), "rb") as handle:
                    sources.update(name.encode() + b"\0" + handle.read())
    return {
        "git_revision": revision,
        "src_digest": sources.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
    }


def measure_setup(name: str, seed: int) -> list[float]:
    """Wall seconds of fresh interpreters importing and building up to pass 1."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        subprocess.run(
            [sys.executable, probe, name, str(seed)], cwd=ROOT, check=True
        )
        samples.append(perf_counter() - started)
    return samples


class Checker:
    """Digest comparison plus self-checks, accumulated over every pass."""

    def __init__(self, expected: dict | None) -> None:
        self.reference = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, digests: dict) -> None:
        """Count the pass's cells and compare its digests to the reference."""
        cells = digests["cells"]
        self.attempted += len(cells)
        if self.reference is None:
            self.reference = digests
        for index, (cell, want) in enumerate(zip(cells, self.reference["cells"])):
            if cell is None or cell != want:
                self.failed += 1
                self.problems.append(f"cell {index} digest {cell} != {want}")
        if digests["artefact"] != self.reference["artefact"]:
            self.problems.append(
                f"artefact digest {digests['artefact']} != {self.reference['artefact']}"
            )

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


@dataclass
class Pass:
    wall: float
    cpu: float
    result: Any
    outcomes: list
    records: int
    stored_bytes: int


def run_pass(workload, seed: int, tag: str, around=nullcontext) -> Pass:
    """One pass in a fresh scratch directory, deleted before returning.

    Only ``workload.run`` is timed (inside ``around()``); reading the
    store back and deleting it happen after the clock stops.
    """
    workdir = os.path.join(SCRATCH, f"pass-{os.getpid()}-{tag}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    gc.collect()
    try:
        with around():
            cpu = time.process_time()
            started = perf_counter()
            result = workload.run(seed, workdir)
            wall = perf_counter() - started
            cpu = time.process_time() - cpu
        outcomes = result.cell_outcomes(workload.specs(seed))
        records = result.store_records()
        stored_bytes = sum(
            os.path.getsize(os.path.join(path, name))
            for path, _dirs, names in os.walk(workdir)
            for name in names
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return Pass(wall, cpu, result, outcomes, records, stored_bytes)


def check_pass(checker: Checker, workload, done: Pass) -> None:
    """Digest comparison and the self-checks any pass must meet."""
    from workloads import digest

    outcomes, artefact = done.outcomes, done.result.artefact
    checker.check(
        {
            "cells": [
                digest(workload.cell_view(o.result)) if o is not None and o.ok else None
                for o in outcomes
            ],
            "artefact": None if artefact is None else digest(artefact),
        }
    )
    stored = workload.name in STORED
    checker.require(
        (done.records > 0) == stored,
        f"{done.records} store records written; expected {'some' if stored else 'none'}",
    )
    results = [o.result for o in outcomes if o is not None and o.ok]
    if workload.name in ("fleet", "landscape"):
        faulted = [r for r in results if any(r["fault_stats"].values())]
        checker.require(not faulted, f"{len(faulted)} cells saw link faults")
    if workload.name == "chaos":
        checkpoints = artefact["document"]["checkpoints"]
        final = checkpoints[-1]
        checker.require(final["fault_stats"]["dropped_partition"] > 0, "no partition drops")
        untils = [entry["until"] for entry in checkpoints]
        checker.require(sum(untils) > max(untils), "no prefix re-simulation")


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def traced_pass(workload, seed: int, checker: Checker, untraced: list[Pass]) -> tuple:
    """One traced pass: per-layer metrics, attribution and workload checks."""
    import workloads
    from spans import PASS, SIM, Tracer, layer_metrics

    tracer = Tracer()
    with tracer.instrument(workloads):
        done = run_pass(workload, seed, "traced", lambda: tracer.span(PASS))
        layers, codec_calls = layer_metrics(tracer)
    check_pass(checker, workload, done)
    wall = tracer.total(PASS)
    counts = tracer.counts
    name = workload.name

    attributed = sum(layers.values())
    checker.require(
        abs(attributed - wall) <= 1e-9 * wall,
        f"self times sum to {attributed:.6f}s, not the traced wall {wall:.6f}s",
    )
    checker.require(
        layers["unattributed_s"] >= 0.0,
        f"layers overlap: unattributed {layers['unattributed_s']:.6f}s",
    )
    events = sum(o.result["events_processed"] for o in untraced[0].outcomes)
    checker.require(
        counts["netsim.events"] == events,
        f"traced events {counts['netsim.events']} != untraced {events}",
    )
    resim = counts["client_s_executed"] / workload.client_seconds
    if name == "chaos":
        checker.require(counts["netsim.partition_drops"] > 0, "no partition drops traced")
        checker.require(resim > 1.0, f"re-simulation ratio {resim} not above 1")
    else:
        checker.require(
            counts["netsim.fault_drops"] == 0 and layers["netsim.faults_s"] == 0.0,
            "fault path taken on a fault-free workload",
        )
        checker.require(
            abs(resim - 1.0) < 1e-9, f"executed/delivered client-seconds {resim} != 1"
        )
    appends = tracer.calls("experiments.store.append")
    checker.require(
        appends == done.records, f"{appends} store appends traced, {done.records} stored"
    )
    answers = tracer.answers_by_fraction
    if name == "landscape":
        queries, responses = answers[0.0]
        checker.require(
            responses / queries >= ANSWERED_MIN,
            f"fraction-0 answer ratio {responses / queries:.3f} < {ANSWERED_MIN}",
        )
    if name == "table2":
        queries, responses = answers[1.0]
        checker.require(
            responses / queries <= RATE_LIMITED_MAX,
            f"answer ratio {responses / queries:.3f} > {RATE_LIMITED_MAX}",
        )

    queries = counts["ntp.server.queries"]
    removed = counts["core.associations_removed"]
    cell_walls = [o.wall_time for p in untraced for o in p.outcomes if o is not None]
    metrics = dict(layers, **codec_calls)
    metrics.update(
        {
            "netsim.events": counts["netsim.events"],
            "netsim.events_per_s": counts["netsim.events"] / tracer.total(SIM),
            "netsim.packets": counts["netsim.packets"],
            "netsim.packets_dropped": counts["netsim.packets_dropped"],
            "netsim.fault_drops": counts["netsim.fault_drops"],
            "ntp.server.queries": queries,
            "ntp.server.responses": counts["ntp.server.responses"],
            "ntp.server.answer_ratio": counts["ntp.server.responses"] / queries,
            "dns.resolver.queries": counts["dns.resolver.queries"],
            "core.spoofed_queries": counts["core.spoofed_queries"],
            "core.associations_removed": removed,
            "core.spoofed_per_removal": counts["core.spoofed_queries"] / max(removed, 1),
            "testbed.builds": counts["testbed.builds"],
            "population.sim_s_executed": counts["population.sim_s_executed"],
            "population.resim_ratio": resim,
            "experiments.cell_s_p50": statistics.median(cell_walls),
            "experiments.cell_s_p90": quantile(cell_walls, 0.9),
            "experiments.cells_timed": len(cell_walls),
            "experiments.store.fsyncs": tracer.calls("experiments.store.fsync"),
            "experiments.store.records": appends,
            "experiments.store.bytes": done.stored_bytes,
            "process.cpu_util": done.cpu / wall,
            "trace.pass_s": wall,
            "trace.overhead": wall / statistics.median(p.wall for p in untraced) - 1.0,
        }
    )
    return metrics, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help="record this run's digests as the reference for its seed",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as handle:
        declared = json.load(handle)
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    print(json.dumps({"workload": workload.name, "seed": seed, **provenance()}))

    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    recorded = expected.get(workload.name)
    reference = None
    if recorded and recorded["seed"] == seed and not args.write_expected:
        reference = recorded
    checker = Checker(reference)
    stores_before = {p for p in REPO_STORES if os.path.exists(os.path.join(ROOT, p))}

    setup = [] if args.trace else measure_setup(workload.name, seed)
    # Pay this process's own cold start too, so pass 1 starts warm.
    workload.specs(seed)
    workload.first_testbed(seed)

    passes: list[Pass] = []
    started = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - started < args.seconds:
        passes.append(run_pass(workload, seed, str(len(passes))))
        check_pass(checker, workload, passes[-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [p.wall for p in passes]
    wall_s = statistics.median(walls)

    if args.trace:
        kind = "per_layer"
        metrics, tracer = traced_pass(workload, seed, checker, passes)
        os.makedirs(SCRATCH, exist_ok=True)
        spans_path = os.path.join(SCRATCH, f"spans-{workload.name}-{seed}.json")
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "metrics": metrics}, handle)
    else:
        kind = "end_to_end"
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "client_h_per_s": workload.client_seconds / 3600.0 / wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
    units = {entry["name"]: entry["unit"] for entry in declared[kind]}
    if set(metrics) != set(units):
        raise SystemExit(
            f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json"
        )
    created = {p for p in REPO_STORES if os.path.exists(os.path.join(ROOT, p))}
    checker.require(
        not created - stores_before,
        f"a pass wrote into the repository: {sorted(created - stores_before)}",
    )

    if args.write_expected:
        expected[workload.name] = dict(checker.reference, seed=seed)
        with open(EXPECTED, "w", encoding="utf-8") as handle:
            json.dump(expected, handle, indent=2, sort_keys=True)
            handle.write("\n")

    print(
        json.dumps(
            {
                "pass_wall_s": walls,
                "setup_s_samples": setup,
                "fail_frac": checker.failed / checker.attempted,
                "problems": checker.problems,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": not checker.problems,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    key: {"value": metrics[key], "unit": units[key]} for key in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
