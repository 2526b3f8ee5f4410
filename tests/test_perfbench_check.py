"""A wrong benchmark digest fails the tooling.

``perfbench/run.py`` exits 0 even when its last line reads
``"correct": false``; ``benchmarks/perfbench_check.py`` (behind ``make
perfbench``) and the reach probe's perfbench surfaces turn that line into
a failing status.  The reach probe also refuses to report when the sources
changed while it ran.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name: str):
    path = os.path.join(ROOT, "benchmarks", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _last_line(correct) -> str:
    return json.dumps({"correct": correct, "attempted": 3, "failed": 0})


class TestReadsCorrect:
    def test_true_last_line(self):
        check = _load("perfbench_check")
        assert check.reads_correct('{"workload": "table2"}\n' + _last_line(True) + "\n")

    def test_false_last_line(self):
        check = _load("perfbench_check")
        assert not check.reads_correct(_last_line(True) + "\n" + _last_line(False))

    def test_trailing_blank_lines_are_skipped(self):
        check = _load("perfbench_check")
        assert check.reads_correct(_last_line(True) + "\n\n  \n")

    def test_anything_else_is_not_correct(self):
        check = _load("perfbench_check")
        for stdout in ("", "\n", "correct: true", "[true]", '{"failed": 0}', '{"correct": 1}'):
            assert not check.reads_correct(stdout), stdout


class TestWrapper:
    def _run(self, capsys, correct=None, status=0):
        check = _load("perfbench_check")
        line = _last_line(correct)
        code = f"print({line!r}); raise SystemExit({status})"
        result = check.main([sys.executable, "-c", code])
        return result, capsys.readouterr()

    def test_correct_run_exits_0_and_passes_output_through(self, capsys):
        result, captured = self._run(capsys, correct=True)
        assert result == 0
        assert captured.out.strip() == _last_line(True)

    def test_wrong_digest_exits_1(self, capsys):
        result, captured = self._run(capsys, correct=False)
        assert result == 1
        assert '"correct": true' in captured.err

    def test_failing_command_keeps_its_status(self, capsys):
        result, _captured = self._run(capsys, correct=True, status=3)
        assert result == 3


class TestReachProbe:
    def test_perfbench_surface_with_wrong_digest_fails(self, tmp_path):
        reach = _load("reach")
        script = tmp_path / "fake_run.py"
        script.write_text(f"print({_last_line(False)!r})\n")
        out = str(tmp_path / "entered.json")
        label, status, _entered = reach.probe("perfbench table2 --trace 0", [str(script)], out)
        assert status == 1
        script.write_text(f"print({_last_line(True)!r})\n")
        label, status, _entered = reach.probe("perfbench table2 --trace 0", [str(script)], out)
        assert status == 0

    def test_sources_changed_while_probing_exits_2(self, monkeypatch, capsys):
        reach = _load("reach")
        fingerprints = iter(["before", "after"])
        monkeypatch.setattr(reach, "source_fingerprint", lambda: next(fingerprints))
        monkeypatch.setattr(reach, "surfaces", lambda scratch: [])
        monkeypatch.setattr(reach, "store_readers", lambda scratch: [])
        assert reach.main() == 2
        assert capsys.readouterr().out.strip() == "sources changed while probing; rerun"

    def test_fingerprint_is_stable_for_unchanged_sources(self):
        reach = _load("reach")
        assert reach.source_fingerprint() == reach.source_fingerprint()
