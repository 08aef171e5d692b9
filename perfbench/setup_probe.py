"""Time one workload set-up in a fresh interpreter; print its CPU seconds.

Set-up is what a command-line user pays before the first solver or simulator
call: importing tubecbf, load_config (formula parse and bind), instance() and
loading the reference tubes.  Usage: python3 perfbench/setup_probe.py WORKLOAD
"""

import sys
import time

t0 = time.process_time()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tubecbf  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

WORKLOADS[sys.argv[1]].setup(tubecbf, Context(out=None))
print(repr(time.process_time() - t0))
