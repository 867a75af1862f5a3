"""One set-up of a workload, timed from outside by run.py for ``setup_s``.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Starts the interpreter, imports the package and does what the CLI does
before the workload's first command starts work, then prints the
monotonic clock, which is shared by all processes on the host.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports cfqmc from the checkout)

workloads.WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]))
print(time.perf_counter())
