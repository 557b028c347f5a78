"""Host-speed calibration.

On a shared host the speed of our CPUs swings by up to 1.75x over tens of
seconds, as other tenants load the cores we share; wall time and CPU time
of the same op swing together.  So every op is timed between two runs of a
fixed pure-Python computation on the same pinned CPU, and its time is
reported in reference seconds:

    raw seconds * REFERENCE_S / mean(calibration before, calibration after)

A change to shufflecalc does not touch the calibration, so it scales the
reported time as it scales the raw time.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

# The calibration's time on the reference host (a 2-core x86-64 virtual
# machine, Python 3.11, in its fast phase), so that a reference second is
# about a second on that host.
REFERENCE_S = 0.028


def pin_to_one_cpu() -> None:
    """Keep the benchmark and its children on one CPU, so an op and its
    calibrations run under the same load."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibrate() -> float:
    """Seconds taken by a fixed mix of Fraction arithmetic, tuple hashing
    and dict updates, the operations the engine spends its time on."""
    start = time.perf_counter()
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 6000):
        key = (i % 13, i % 7, i % 5)
        acc += Fraction(i % 17 - 8, i % 9 + 1) * Fraction(1, i % 3 + 1)
        table[key] = table.get(key, acc)
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    return seconds * REFERENCE_S * 2 / (before + after)
