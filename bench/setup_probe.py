"""Time one workload's set-up in a fresh interpreter and print it in seconds.

Usage: python3 bench/setup_probe.py ROOT WORKLOAD SEED

Prints the set-up seconds and the median time in ns of the reference task of
calibrate.py, run five times before and five times after.

The clock starts after interpreter start and input generation, and covers
``import gradcast`` and ``import gradcast.cli`` plus building the workload's
predicates and wrappers, up to the first op.
"""

import sys
import time
from pathlib import Path

root, name, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
sys.path.insert(0, str(root / "src"))

import workloads  # noqa: E402
from calibrate import reference_ns  # noqa: E402

workload = workloads.WORKLOADS[name]
inputs = workload.setup_inputs(seed)
references = [reference_ns() for _ in range(5)]
start = time.perf_counter()
import gradcast  # noqa: E402,F401
import gradcast.cli  # noqa: E402,F401

workload.build(workloads.gradcast_api(), inputs)
elapsed = time.perf_counter() - start
references += [reference_ns() for _ in range(5)]
print(elapsed, sorted(references)[len(references) // 2])
