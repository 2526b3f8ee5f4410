#!/usr/bin/env python3
"""Run the benchmark of record and fail when its digest is wrong.

``perfbench/run.py`` ends with one JSON line whose ``correct`` field says
whether every pass reproduced the workload's expected digest, but it exits
0 either way.  This wrapper runs the command it is given, passes its
output through, and exits 1 when the last line does not read
``"correct": true`` (a failing command keeps its own exit status)::

    python3 benchmarks/perfbench_check.py python3 perfbench/run.py --workload table2

``make perfbench`` runs through it, and the reach probe
(``benchmarks/reach.py``) judges its perfbench surfaces with
:func:`reads_correct`.
"""

from __future__ import annotations

import json
import subprocess
import sys


def reads_correct(stdout: str) -> bool:
    """Whether the last non-blank line of ``stdout`` is a JSON object whose
    ``correct`` field is ``true``."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return False
    try:
        document = json.loads(lines[-1])
    except ValueError:
        return False
    return isinstance(document, dict) and document.get("correct") is True


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: perfbench_check.py COMMAND [ARG ...]", file=sys.stderr)
        return 2
    process = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    sys.stdout.write(process.stdout)
    if process.returncode:
        return process.returncode
    if not reads_correct(process.stdout):
        print('perfbench: the last line does not read "correct": true', file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
