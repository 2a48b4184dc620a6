"""One set-up probe: import spherestress and generate a workload's inputs
in this fresh interpreter, then print the seconds it took.

    python3 perfbench/setup_once.py <workload> <seed>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - START)
