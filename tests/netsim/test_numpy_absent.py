"""Numpy-absent operation: the per-packet leaf modules need no numpy.

``repro.netsim.burst`` (the spray drain) and ``repro.ntp.rate_limit`` (the
limiter every server checks per query) import nothing numpy-backed.  The
test runs a subprocess whose ``sys.meta_path`` blocks numpy outright and
asserts both modules import and work there.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

BLOCKER_PRELUDE = """
import importlib.abc
import os
import sys
import types

class _NumpyBlocker(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"numpy blocked for this test ({name})")
        return None

sys.meta_path.insert(0, _NumpyBlocker())
assert "numpy" not in sys.modules

# The package __init__ modules pull in the simulator, whose seeded RNG
# legitimately requires numpy.  The degradation contract belongs to the
# leaf modules (burst, rate_limit) and their numpy-free transitive deps,
# so import those directly under stub parent packages that skip __init__.
_SRC = os.environ["PYTHONPATH"]
for _name in ("repro", "repro.netsim", "repro.ntp"):
    _pkg = types.ModuleType(_name)
    _pkg.__path__ = [os.path.join(_SRC, *_name.split("."))]
    _pkg.__package__ = _name
    sys.modules[_name] = _pkg
"""


def run_blocked(script: str, payload: dict | None = None) -> dict:
    """Run ``script`` in a numpy-blocked subprocess; return its JSON stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(REPO_SRC))
    process = subprocess.run(
        [sys.executable, "-c", BLOCKER_PRELUDE + script],
        input=json.dumps(payload or {}),
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout)


class TestGuardedImports:
    def test_modules_import_without_numpy(self):
        result = run_blocked(
            """
import json
from repro.netsim import burst
from repro.ntp import rate_limit
limiter = rate_limit.RateLimiter(average_interval=8.0, burst_tolerance=10.0)
decisions = [limiter.check("10.9.9.9", 0.0).value for _ in range(3)]
print(json.dumps({
    "burst_spray": hasattr(burst, "DatagramBatch"),
    "decisions": decisions,
    "numpy_loaded": "numpy" in sys.modules,
}))
"""
        )
        assert result == {
            "burst_spray": True,
            "decisions": ["respond", "kod", "drop"],
            "numpy_loaded": False,
        }

