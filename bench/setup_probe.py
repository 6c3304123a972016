"""Child process behind ``setup_s``.

Times, in a fresh interpreter, ``import relival.cli`` (which imports the
whole package) plus one workload's set-up.  The benchmark's own module
import and input data are left out of the figure.  Then times the
calibration work (``calibrate.py``) five times in the same process and
prints the set-up seconds scaled to the reference host, then the raw
seconds.

Usage: python3 bench/setup_probe.py WORKLOAD SEED
"""

import pathlib
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

t0 = time.perf_counter()
import relival.cli  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
inputs = workload.inputs(int(sys.argv[2]))
t2 = time.perf_counter()
workload.setup(inputs)
t3 = time.perf_counter()
setup = (t1 - t0) + (t3 - t2)

import statistics  # noqa: E402

from calibrate import calibration_s, scale  # noqa: E402

calibration = statistics.median(calibration_s() for _ in range(5))
print(repr(scale(setup, calibration)), repr(setup))
