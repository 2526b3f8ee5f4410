#!/usr/bin/env python3
"""Reach probe: which functions in ``src/repro`` no production surface calls.

Runs every production surface of the repository in its own interpreter
under ``sys.setprofile`` and records each Python function that is entered
at least once.  It then lists every function defined in ``src/repro`` that
no surface called, with its line count, and a total::

    python3 benchmarks/reach.py        (or: make reach)

The surfaces are the five examples, the 13 paper benchmarks (pytest files
``benchmarks/bench_*.py`` other than the delivery microbenchmark), the four
benchmark-of-record workloads with ``--trace 0`` and ``--trace 1``, the
landscape and chaos smoke CLIs, and ``store fsck`` / ``store report`` on
the stores those two CLIs write.  The CLI stores and all profiles live in a
temporary directory that is removed on exit.

Not observed: code that runs only in another process the surfaces start.
That is the process-pool workers of the experiment engine
(``warm_worker_caches``, ``_execute_chunk``) and the fresh interpreters of
the benchmark's setup probe.  A function listed here is never called by
the surfaces; whether it can be deleted is a separate question (crash
recovery, strict-mode checks and CLI-only code run only when asked).

Takes several minutes; surfaces run two at a time.  The exit status is 1
when a surface fails, since its reach would then be incomplete.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: Surfaces run concurrently (each is one interpreter).
PARALLEL = 2
#: Run length handed to the benchmark of record (it still runs its minimum
#: number of passes).
PERFBENCH_SECONDS = "1"
#: The microbenchmark is a timing harness, not a paper artefact.
NOT_A_SURFACE = ("bench_micro_netsim.py",)

#: Runs ``argv[2]`` (a script path, or ``-m`` and a module) with the
#: remaining arguments under a profiler and writes the entered code objects
#: defined under ``src/repro`` to ``argv[1]`` as JSON.
BOOTSTRAP = r"""
import json, os, runpy, sys, threading

out, package = sys.argv[1], sys.argv[2]
seen = set()

def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

def dump():
    entered = sorted(
        {
            (os.path.relpath(code.co_filename, package), code.co_firstlineno, code.co_name)
            for code in seen
            if code.co_filename.startswith(package)
        }
    )
    with open(out, "w") as handle:
        json.dump(entered, handle)

if sys.argv[3] == "-m":
    sys.argv = [sys.argv[4]] + sys.argv[5:]
    run = lambda: runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
else:
    sys.argv = sys.argv[3:]
    sys.path.insert(0, os.path.dirname(os.path.abspath(sys.argv[0])))
    run = lambda: runpy.run_path(sys.argv[0], run_name="__main__")
threading.setprofile(profile)
sys.setprofile(profile)
status = 0
try:
    run()
except SystemExit as exc:
    status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
finally:
    sys.setprofile(None)
    threading.setprofile(None)
    dump()
sys.exit(status)
"""


def defined_functions() -> dict[tuple[str, int, str], tuple[str, int]]:
    """Every function in ``src/repro``, keyed like the profiler's records.

    The key is ``(path, first line, name)``; the first line is the first
    decorator's, as in ``co_firstlineno``.  The value is the qualified name
    and the line count.
    """
    functions: dict[tuple[str, int, str], tuple[str, int]] = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        relative = os.path.relpath(path, PACKAGE)
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    functions[(relative, first, child.name)] = (
                        prefix + child.name,
                        child.end_lineno - first + 1,
                    )
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return functions


def surfaces(scratch: str) -> tuple[list, list]:
    """``(label, command)`` pairs: independent ones, then the store readers."""
    independent = []
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        independent.append((os.path.relpath(path, ROOT), [path]))
    for path in sorted(glob.glob(os.path.join(ROOT, "benchmarks", "bench_*.py"))):
        if os.path.basename(path) not in NOT_A_SURFACE:
            independent.append(
                (
                    os.path.relpath(path, ROOT),
                    # Timed benchmark rounds pause any profiler; disabled,
                    # each benchmarked function runs once, observed.
                    ["-m", "pytest", path, "-q", "-p", "no:cacheprovider",
                     "--benchmark-disable"],
                )
            )
    run = os.path.join(ROOT, "perfbench", "run.py")
    for workload in ("table2", "fleet", "landscape", "chaos"):
        for trace in ("0", "1"):
            independent.append(
                (
                    f"perfbench {workload} --trace {trace}",
                    [run, "--workload", workload, "--trace", trace,
                     "--seconds", PERFBENCH_SECONDS],
                )
            )
    stores = []
    for cli in ("landscape", "chaos"):
        store = os.path.join(scratch, f"{cli}_store")
        independent.append(
            (f"repro.population.{cli}", ["-m", f"repro.population.{cli}", "--store", store])
        )
        for command in ("fsck", "report"):
            stores.append(
                (
                    f"store {command} ({cli})",
                    ["-m", "repro.experiments.store", command, store],
                )
            )
    return independent, stores


def probe(label: str, command: list, out: str) -> tuple[str, int, list]:
    """Run one surface under the profiler; its exit status and entered functions."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.run(
        [sys.executable, "-c", BOOTSTRAP, out, PACKAGE, *command],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        check=False,
    )
    entered = []
    if os.path.exists(out):
        with open(out) as handle:
            entered = [tuple(record) for record in json.load(handle)]
    status = process.returncode
    if status:
        sys.stderr.write(f"{label}: exit {status}\n{process.stderr[-2000:]}\n")
    return label, status, entered


def main() -> int:
    functions = defined_functions()
    called: set = set()
    failed = []
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        independent, stores = surfaces(scratch)
        for phase, group in enumerate((independent, stores)):
            with ThreadPoolExecutor(PARALLEL) as pool:
                jobs = [
                    pool.submit(
                        probe, label, command, os.path.join(scratch, f"{phase}-{index}.json")
                    )
                    for index, (label, command) in enumerate(group)
                ]
                for job in jobs:
                    label, status, entered = job.result()
                    print(f"ran {label}: exit {status}", file=sys.stderr)
                    if status:
                        failed.append(label)
                    called.update(entered)
    never = sorted(key for key in functions if key not in called)
    print(
        "Not observed: code that runs only in process-pool workers "
        "(warm_worker_caches, _execute_chunk) or other child processes."
    )
    for key in never:
        qualname, lines = functions[key]
        print(f"src/repro/{key[0]}:{key[1]}  {qualname}  ({lines} lines)")
    lines = sum(functions[key][1] for key in never)
    print(
        f"{len(never)} of {len(functions)} functions never called "
        f"({lines:,} lines) by {len(independent) + len(stores)} surfaces"
    )
    if failed:
        print(f"incomplete: {len(failed)} surfaces failed: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
