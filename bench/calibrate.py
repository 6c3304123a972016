"""Host-speed calibration that the end-to-end times are scaled by.

Shared 2-vCPU virtual machines switch between speeds about 1.6x apart
for one to three minutes at a time, longer than a run, so raw task
times from two runs of the same code can differ by more than any useful
bound.  ``calibration_s`` times a fixed piece of pure-Python work next
to each measurement: ``Fraction`` arithmetic, small tuples, a dict and
float division, the kinds of work the program does, with no call into
the program.  A measured time ``t`` is reported as
``t * REFERENCE_S / calibration_s()``: the time it would take on a host
on which the calibration work takes ``REFERENCE_S``.  A program change
moves ``t`` and not the calibration, so it moves the reported time by
the same factor.
"""

import gc
import time
from fractions import Fraction

REFERENCE_S = 1e-3


def _work():
    acc = Fraction(0)
    table = {}
    s = 0.0
    for i in range(1, 120):
        acc += Fraction(i, i + 7)
        table[i % 13] = (i, s)
        s = s * 0.5 + i / 3.0
    return acc, s


def calibration_s() -> float:
    """Seconds that the fixed work takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, calibration: float) -> float:
    """``seconds`` on the reference host, given the calibration time next to it."""
    return seconds * REFERENCE_S / calibration
