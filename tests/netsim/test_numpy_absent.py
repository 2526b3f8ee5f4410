"""Numpy-absent operation: the guarded fast paths must degrade, not die.

``repro.ntp.rate_limit`` imports numpy behind a guard and carries a
pure-python twin (the running-max ``consume_times`` loop);
``repro.netsim.burst`` needs no numpy at all.  These tests run a subprocess
whose ``sys.meta_path`` blocks numpy outright and assert both modules
import, and that the twin runs and produces results bit-identical to the
vectorised backend computed in the parent process (same IEEE op order).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.ntp.rate_limit import RateLimiter

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
print(json.dumps({
    "burst_spray": hasattr(burst, "SprayDelivery"),
    "rate_limit_np": rate_limit.np is None,
}))
"""
        )
        assert result == {"burst_spray": True, "rate_limit_np": True}


SCHEDULE = [0.0, 0.0, 0.5, 1.0, 1.0, 3.25, 3.25, 3.25, 10.0, 64.0, 64.5, 65.0]
LIMITER_PARAMS = dict(average_interval=7.77, burst_tolerance=10.0)

CONSUME_TIMES_SCRIPT = """
import json
import sys

from repro.ntp.rate_limit import RateLimiter

payload = json.loads(sys.stdin.read())
limiter = RateLimiter(**payload["params"])
decisions = limiter.consume_times("10.9.9.9", payload["times"])
state = limiter.sources["10.9.9.9"]
print(json.dumps({
    "decisions": [d.value for d in decisions],
    "score": state.score,
    "last_seen": state.last_seen,
    "drops": state.drops,
    "kod_sent": state.kod_sent,
    "queries_seen": limiter.queries_seen,
    "queries_dropped": limiter.queries_dropped,
    "kods_sent": limiter.kods_sent,
}))
"""


class TestConsumeTimesWithoutNumpy:
    def test_pure_python_twin_is_bit_identical(self):
        # Vectorised backend, in this process (numpy available).
        limiter = RateLimiter(**LIMITER_PARAMS)
        decisions = limiter.consume_times("10.9.9.9", SCHEDULE)
        state = limiter.sources["10.9.9.9"]

        blocked = run_blocked(
            CONSUME_TIMES_SCRIPT,
            {"params": LIMITER_PARAMS, "times": SCHEDULE},
        )
        assert blocked["decisions"] == [d.value for d in decisions]
        # Bit-identical float state: JSON round-trips doubles exactly.
        assert blocked["score"] == state.score
        assert blocked["last_seen"] == state.last_seen
        assert blocked["drops"] == state.drops
        assert blocked["kod_sent"] == state.kod_sent
        assert blocked["queries_seen"] == limiter.queries_seen
        assert blocked["queries_dropped"] == limiter.queries_dropped
        assert blocked["kods_sent"] == limiter.kods_sent

    def test_validation_still_enforced_without_numpy(self):
        result = run_blocked(
            """
import json
from repro.ntp.rate_limit import RateLimiter

limiter = RateLimiter()
try:
    limiter.consume_times("10.0.0.1", [2.0, 1.0])
except ValueError:
    ordered = True
else:
    ordered = False
try:
    RateLimiter(average_interval=-1.0).consume_times("10.0.0.1", [0.0])
except ValueError:
    negative = True
else:
    negative = False
print(json.dumps({
    "ordered": ordered,
    "negative": negative,
    "empty": RateLimiter().consume_times("10.0.0.1", []) == [],
}))
"""
        )
        assert result == {"ordered": True, "negative": True, "empty": True}
