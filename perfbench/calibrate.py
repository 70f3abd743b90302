"""Host-speed calibration: fixed work that uses no howe5 code.

A shared host runs the same code up to 1.6x slower while other tenants are
busy, for under a second or for minutes at a time; interpreter-bound code
and array-bound code slow down by different factors, and process start-up
slows down in phases of its own.  Three calibrators measure those speeds
during a run, and a change to howe5 cannot move them:

- python_kernel() or numpy_kernel(), whichever matches the workload's
  dominant code (workloads.KERNEL), timed by the child before every timed
  piece of the workload;
- the start of an interpreter that imports numpy, the bulk of the program's
  set-up, timed by run.py next to every set-up probe.

run.py scales wall times by the kernel's reference time in KERNELS over the
5th percentile of its timings in the run, and set-up times by START_REF_S
over the fastest start, which gives the times at a fixed host speed.

    python3 perfbench/calibrate.py     # 5th percentile of 200 timings, fastest of 10 starts
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np


def python_kernel() -> int:
    """Interpreter-bound integer arithmetic, list indexing and calls, the
    mix of the search kernel's probe loop."""
    table = list(range(257))
    acc = 0
    for i in range(50_000):
        acc = (acc * 31 + table[i & 255]) % 1_000_003
        acc ^= abs(i - acc) & 7
    return acc


def numpy_kernel() -> int:
    """Array-bound int64 modular arithmetic, table lookups and np.where on
    blocks of 2^13 elements, the mix of the point counters.  The blocks are
    small so that the kernel adds nothing to the peak resident set."""
    idx = np.arange(1 << 13, dtype=np.int64)
    square = np.zeros(8_191, dtype=bool)
    square[(idx * idx) % 8_191] = True
    total = 0
    for k in range(80):
        g = (idx * (k + 3) + 7) % 8_191
        total += int(np.where(g == 0, 0, np.where(square[g], 1, -1)).sum())
    return total


# (kernel, its time as run.py takes it on the host the benchmark was written
# on: two vCPUs of an Intel Xeon, Python 3.11, numpy 2.4, in a quiet phase).
# The times only set the scale of the reported times; comparisons need them
# unchanged.
KERNELS = {"python": (python_kernel, 0.0070), "numpy": (numpy_kernel, 0.0070)}
START_REF_S = 0.100


def time_kernel(name: str) -> float:
    """One timing of the named kernel, in seconds."""
    kernel = KERNELS[name][0]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def time_start(env: dict) -> float:
    """Seconds from starting an isolated interpreter to the end of its
    ``import numpy``, timed the way run.py times set-up."""
    code = "import time, numpy; print(time.monotonic())"
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-I", "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(proc.stdout) - t0


if __name__ == "__main__":
    import statistics

    for name in KERNELS:
        print(name, statistics.quantiles([time_kernel(name) for _ in range(200)], n=20)[0])
    print("start", min(time_start({"PATH": "/usr/bin:/bin"}) for _ in range(10)))
