#!/usr/bin/env python3
"""Reach probe: every function in ``src/repro`` has a surface, a reason, or goes.

Runs every production surface of the repository in its own interpreter
under ``sys.setprofile`` and records each Python function that is entered
at least once.  Every function defined in ``src/repro`` that no surface
called must then have an entry in the committed allowlist
``benchmarks/reach_allow.txt``; the probe lists the ones that do not, with
their line counts, and ends with ``N unexplained``::

    python3 benchmarks/reach.py        (or: make reach)

The allowlist holds one entry per line: the function as
``src/repro/<path>:<qualname>``, then whitespace, then the reason it stays
although no surface calls it.  The reason names the test that pins the
function (``tests/<file>.py::<Class>::<test>``), e.g. a reference oracle a
property test compares against, a resilience path ``make chaos`` runs, or
a ROADMAP item that will reach it.  Blank lines and ``#`` comments are
skipped.  One entry covers every definition with that qualname (a
property's getter and setter).

The surfaces are the five examples, the 13 paper benchmarks (pytest files
``benchmarks/bench_*.py`` other than the delivery microbenchmark), the four
benchmark-of-record workloads with ``--trace 0`` and ``--trace 1``, the
landscape and chaos smoke CLIs, and the run-store CLI's ``fsck``,
``report`` and ``report ROOT SWEEP_ID`` (one sweep; ``python -m
repro.experiments``) on the stores those two CLIs write.  The CLI stores and all profiles live in a temporary directory that
is removed on exit.

The probe also records which top-level fields of every
:class:`~repro.population.spec.PopulationSpec` a surface hands to
``run_fleet`` and every :class:`~repro.population.chaos.ChaosPlan` it
hands to ``compile_chaos`` differ from the class defaults.  It lists the
fields no surface sets; each needs an allowlist entry in the same form
(``src/repro/<path>:<Class>.<field>`` and a reason naming the test that
pins the field), and an entry for a field a surface now sets is stale.

Not observed: code that runs only in another process the surfaces start.
That is the process-pool workers of the experiment engine
(``_execute_chunk``) and the fresh interpreters of
the benchmark's setup probe; their allowlist entries say so.

Takes several minutes; surfaces run two at a time.  The exit status is 1
when any function or never-set field is unexplained, when an allowlist
entry is stale (its function or field no longer exists, or a surface now
reaches or sets it), or when a surface
fails, since its reach would then be incomplete; 0 otherwise.  A
benchmark-of-record surface also fails when its last line does not read
``"correct": true`` (``benchmarks/perfbench_check.py``).  Functions are
matched by their source lines, so the probe fingerprints ``src/repro`` when
it starts and when it ends; if the sources changed in between it reports
nothing and exits 2 ("sources changed while probing; rerun").
"""

from __future__ import annotations

import ast
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from perfbench_check import reads_correct  # noqa: E402  (sibling script)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
#: The committed allowlist of functions no surface calls, with reasons.
ALLOW = os.path.join(ROOT, "benchmarks", "reach_allow.txt")

#: Surfaces run concurrently (each is one interpreter).
PARALLEL = 2
#: Run length handed to the benchmark of record (it still runs its minimum
#: number of passes).
PERFBENCH_SECONDS = "1"
#: The microbenchmark is a timing harness, not a paper artefact.
NOT_A_SURFACE = ("bench_micro_netsim.py",)
#: The declarative classes whose top-level fields the probe lists; ``RUNS``
#: in ``BOOTSTRAP`` names the entry point through which a surface runs each.
SPEC_CLASSES = (
    ("population/spec.py", "PopulationSpec"),
    ("population/chaos.py", "ChaosPlan"),
)

#: Runs ``argv[2]`` (a script path, or ``-m`` and a module) with the
#: remaining arguments under a profiler and writes to ``argv[1]`` as JSON
#: the entered code objects defined under ``src/repro`` (``entered``) and
#: the fields of the specs and plans run that differ from their class
#: defaults (``set_fields``).
BOOTSTRAP = r"""
import dataclasses, json, os, runpy, sys, threading

out, package = sys.argv[1], sys.argv[2]
RUNS = {"run_fleet": "spec", "compile_chaos": "plan"}
seen = set()
runs = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        seen.add(code)
        if code.co_name in RUNS and code.co_filename.startswith(package):
            runs.add(frame.f_locals[RUNS[code.co_name]])

def set_fields(spec):
    cls = type(spec)
    path = os.path.relpath(sys.modules[cls.__module__].__file__, package)
    default = cls()
    return {
        f"src/repro/{path}:{cls.__name__}.{field.name}"
        for field in dataclasses.fields(spec)
        if getattr(spec, field.name) != getattr(default, field.name)
    }

def dump():
    entered = sorted(
        {
            (os.path.relpath(code.co_filename, package), code.co_firstlineno, code.co_name)
            for code in seen
            if code.co_filename.startswith(package)
        }
    )
    fields = sorted(set().union(*map(set_fields, runs)))
    with open(out, "w") as handle:
        json.dump({"entered": entered, "set_fields": fields}, handle)

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


def source_fingerprint() -> str:
    """A digest of every ``.py`` file under ``src/repro``, paths included."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, PACKAGE).encode())
        with open(path, "rb") as handle:
            digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


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


def spec_fields() -> set[str]:
    """Every top-level field of :data:`SPEC_CLASSES`, named like an
    allowlist entry: ``src/repro/<path>:<Class>.<field>``."""
    names = set()
    for path, name in SPEC_CLASSES:
        with open(os.path.join(PACKAGE, path), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == name:
                names.update(
                    f"src/repro/{path}:{name}.{statement.target.id}"
                    for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                )
    return names


def load_allowlist(path: str = ALLOW) -> dict[str, str]:
    """The allowlist as ``{"src/repro/<path>:<qualname>": reason}``.

    Raises ``ValueError`` on an entry without a reason or a repeated entry.
    """
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = line.partition(" ")
            reason = reason.strip()
            if not reason:
                raise ValueError(f"{path}:{number}: {name} has no reason")
            if name in entries:
                raise ValueError(f"{path}:{number}: {name} is listed twice")
            entries[name] = reason
    return entries


def function_name(key: tuple[str, int, str], functions: dict) -> str:
    """A function's allowlist name, ``src/repro/<path>:<qualname>``."""
    return f"src/repro/{key[0]}:{functions[key][0]}"


def surfaces(scratch: str) -> list:
    """``(label, command)`` pairs that run independently of each other."""
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
    for cli in ("landscape", "chaos"):
        store = os.path.join(scratch, f"{cli}_store")
        independent.append(
            (f"repro.population.{cli}", ["-m", f"repro.population.{cli}", "--store", store])
        )
    return independent


def store_readers(scratch: str) -> list:
    """``(label, command)`` pairs reading the stores the smoke CLIs wrote:
    ``fsck``, the sweep listing, and the run table of the first sweep."""
    readers = []
    for cli in ("landscape", "chaos"):
        store = os.path.join(scratch, f"{cli}_store")
        sweeps = sorted(
            name
            for name in (os.listdir(store) if os.path.isdir(store) else ())
            if os.path.isfile(os.path.join(store, name, "MANIFEST.json"))
        )
        for label, args in (
            ("fsck", ["fsck", store]),
            ("report", ["report", store]),
            ("report SWEEP_ID", ["report", store, *sweeps[:1]]),
        ):
            readers.append(
                (f"store {label} ({cli})", ["-m", "repro.experiments", *args])
            )
    return readers


def probe(label: str, command: list, out: str) -> tuple[str, int, dict]:
    """Run one surface under the profiler; its exit status and what it
    reached: ``{"entered": [...], "set_fields": [...]}``.  A
    benchmark-of-record surface whose last line does not read
    ``"correct": true`` counts as failed (status 1)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.run(
        [sys.executable, "-c", BOOTSTRAP, out, PACKAGE, *command],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        check=False,
    )
    reached = {"entered": [], "set_fields": []}
    if os.path.exists(out):
        with open(out) as handle:
            reached = json.load(handle)
    status = process.returncode
    if status:
        sys.stderr.write(f"{label}: exit {status}\n{process.stderr[-2000:]}\n")
    elif label.startswith("perfbench ") and not reads_correct(process.stdout):
        status = 1
        sys.stderr.write(f'{label}: last line does not read "correct": true\n')
    return label, status, reached


def main() -> int:
    fingerprint = source_fingerprint()
    functions = defined_functions()
    fields = spec_fields()
    allow = load_allowlist()
    called: set = set()
    set_fields: set = set()
    failed = []
    ran = 0
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        for phase, make_group in enumerate((surfaces, store_readers)):
            group = make_group(scratch)
            ran += len(group)
            with ThreadPoolExecutor(PARALLEL) as pool:
                jobs = [
                    pool.submit(
                        probe, label, command, os.path.join(scratch, f"{phase}-{index}.json")
                    )
                    for index, (label, command) in enumerate(group)
                ]
                for job in jobs:
                    label, status, reached = job.result()
                    print(f"ran {label}: exit {status}", file=sys.stderr)
                    if status:
                        failed.append(label)
                    called.update(tuple(record) for record in reached["entered"])
                    set_fields.update(reached["set_fields"])
    if source_fingerprint() != fingerprint:
        print("sources changed while probing; rerun")
        return 2
    never = sorted(key for key in functions if key not in called)
    unexplained = [key for key in never if function_name(key, functions) not in allow]
    defined = {function_name(key, functions) for key in functions}
    unreached = {function_name(key, functions) for key in never}
    never_set = sorted(fields - set_fields)
    unexplained_fields = [name for name in never_set if name not in allow]
    stale = []
    for name in allow:
        if name in fields:
            if name in set_fields:
                stale.append(f"{name}: now set by a surface")
        elif name not in unreached:
            gone = name not in defined
            stale.append(f"{name}: {'no such function' if gone else 'now reached'}")
    for key in unexplained:
        qualname, lines = functions[key]
        print(f"src/repro/{key[0]}:{key[1]}  {qualname}  ({lines} lines)")
    lines = sum(functions[key][1] for key in never)
    print(
        f"{len(never)} of {len(functions)} functions never called "
        f"({lines:,} lines) by {ran} surfaces; "
        f"{len(never) - len(unexplained)} of them allowlisted"
    )
    print(f"{len(never_set)} of {len(fields)} spec and plan fields no surface sets:")
    for name in never_set:
        print(f"  {name}{'' if name in allow else '  (unexplained)'}")
    for entry in stale:
        print(f"stale allowlist entry {entry}")
    print(f"{len(unexplained) + len(unexplained_fields)} unexplained")
    if failed:
        print(f"incomplete: {len(failed)} surfaces failed: {', '.join(failed)}")
    return 1 if unexplained or unexplained_fields or stale or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
