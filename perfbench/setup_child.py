"""Child interpreter for the set-up measurement: import and warm up, then
print "ready".  Run from the repository root with the workload name."""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import onethread  # noqa: E402,F401  (before numpy)

from probes import warm_up  # noqa: E402
from workloads import load_zetalab  # noqa: E402

warm_up(load_zetalab(), sys.argv[1])
print("ready", flush=True)
