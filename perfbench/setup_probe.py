"""Cold start of one workload, timed from outside by ``run.py``.

Imports the program (which registers its scenarios), builds the run specs
and the first testbed the first pass would build, then exits::

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
seed = int(sys.argv[2])
workload.specs(seed)
workload.first_testbed(seed)
