"""Machine-speed correction of the measured times.

On the 2-vCPU host the benchmark was defined on, the speed of a fixed
single-threaded loop drifts by up to 1.5x over periods of a few to tens of
seconds, in CPU time as much as in wall time (other tenants share the
physical cores).  A 30-second run sits in one or two such periods, so raw
run-to-run spreads reached 30%.

The loop therefore times a fixed calibration kernel (pure-Python arithmetic
plus small numpy array operations; it does not touch rpqcalc) about every
0.1 s of item time, outside the timed items, and scales every measured time
by ``REF_S`` over the median of the latest ``WINDOW`` samples: times are
reported as they would read on a machine where the kernel takes ``REF_S``.
Raw times are kept in the result file next to the corrected ones.
"""

import collections
import math
import statistics
import time

import numpy as np

#: seconds the calibration kernel takes on the host the benchmark was defined
#: on, in its faster state (Xeon, 2 vCPUs, Python 3.11, numpy 2.4)
REF_S = 1.2e-3

#: item time between two samples
EVERY_S = 0.1
#: samples whose median sets the current speed
WINDOW = 5


def _kernel():
    s = 0
    for i in range(15000):
        s += i * i % 7
    a = np.linspace(1.0, 2.0, 2048)
    for _ in range(30):
        a = np.sqrt(a * 1.0001 + 0.5)
    return s + float(a[0])


def sample():
    """Seconds the calibration kernel takes now: the best of three runs."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Tracker:
    """The current correction factor, from the latest samples."""

    def __init__(self):
        self._recent = collections.deque(maxlen=WINDOW)

    def add(self, sample_s):
        self._recent.append(sample_s)

    def factor(self):
        """Multiplier that turns a time measured now into a time at the
        reference speed."""
        return REF_S / statistics.median(self._recent)
