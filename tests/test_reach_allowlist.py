"""The reach probe's allowlist stays true without running the probe.

``benchmarks/reach.py`` runs every production surface (minutes), so tier-1
checks only what needs no surface: every ``benchmarks/reach_allow.txt``
entry names a function or a spec/plan field that exists in ``src/repro``,
and every reason names a test whose file exists and defines the named
class and test.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import os
import re

from repro.population.chaos import ChaosPlan
from repro.population.spec import PopulationSpec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A test id inside a reason: a file under ``tests/`` or ``benchmarks/``,
#: optionally followed by ``::Class::test`` parts.
TEST_ID = re.compile(r"\b((?:tests|benchmarks)/[\w/.-]+\.py)((?:::\w+)*)")


def _reach():
    path = os.path.join(ROOT, "benchmarks", "reach.py")
    spec = importlib.util.spec_from_file_location("reach", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_names_an_existing_function():
    reach = _reach()
    functions = reach.defined_functions()
    defined = {reach.function_name(key, functions) for key in functions}
    defined |= reach.spec_fields()
    missing = [name for name in reach.load_allowlist() if name not in defined]
    assert missing == []


def test_spec_fields_are_the_dataclass_fields():
    expected = {
        f"src/repro/population/{path}:{cls.__name__}.{field.name}"
        for path, cls in (("spec.py", PopulationSpec), ("chaos.py", ChaosPlan))
        for field in dataclasses.fields(cls)
    }
    assert _reach().spec_fields() == expected


def test_every_reason_names_an_existing_test():
    problems = []
    for name, reason in _reach().load_allowlist().items():
        ids = TEST_ID.findall(reason)
        if not ids:
            problems.append(f"{name}: reason names no test")
        for path, parts in ids:
            full = os.path.join(ROOT, path)
            if not os.path.isfile(full):
                problems.append(f"{name}: no file {path}")
                continue
            with open(full, encoding="utf-8") as handle:
                source = handle.read()
            for part in filter(None, parts.split("::")):
                if not re.search(rf"^\s*(?:def|class) {part}\b", source, re.M):
                    problems.append(f"{name}: {path} defines no {part}")
    assert problems == []


def test_probe_records_the_fields_a_run_plan_sets(tmp_path):
    script = tmp_path / "surface.py"
    script.write_text(
        "from repro.population.chaos import CampaignHorizon, ChaosPlan, compile_chaos\n"
        "ChaosPlan(horizon=CampaignHorizon(duration=5.0))  # built, never run\n"
        "compile_chaos(ChaosPlan(groups=(('east', 1.0),)), 2, 0)\n"
    )
    out = str(tmp_path / "reached.json")
    _label, status, reached = _reach().probe("surface", [str(script)], out)
    assert status == 0
    assert reached["set_fields"] == ["src/repro/population/chaos.py:ChaosPlan.groups"]
