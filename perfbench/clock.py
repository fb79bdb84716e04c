"""Scaling of wall times to a reference machine speed.

On a shared 2-core virtual machine the speed of pure-Python work drifts by
a third within seconds.  Five runs of the same exact-oracle ops had median
op wall times from 0.154 to 0.250 s; the median of each op's wall time
divided by a fixed calibration kernel's, timed just before the op, stayed
within 0.239 .. 0.250 s (scaled as below).  So the benchmark times the
kernel right before every op and cold start and reports
wall x K_REF / kernel: seconds as they would read on a machine where the
kernel takes K_REF.  One kernel timing is noisy, but the medians over a run
are not.  The kernel is benchmark code, so no change to dkit can move it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

K_REF = 0.003          # kernel seconds at reference speed

# Cold starts are scaled the same way, but by a fresh interpreter that only
# imports the standard modules dkit's command line needs, timed right
# before each cold start: process start-up and imports drift with the
# machine in a way the in-process kernel does not follow.  Over eight
# batches of sixteen float-mode cold starts, the batch medians of
# wall x START_REF / bare spread by 0.014 of their median (interquartile),
# against 0.08 when scaled by the kernel and 0.09 unscaled.
BARE_START = "import argparse, fractions, json"
START_REF = 0.065      # bare interpreter start seconds at reference speed


def _kernel():
    """Fraction elimination on a fixed 6 x 6 matrix, then a short recursion
    whose entries grow: the two kinds of arithmetic dkit's exact mode does."""
    rng = random.Random(0)
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)]
         for _ in range(6)]
    for c in range(6):
        p = next(i for i in range(c, 6) if a[i][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(6):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    z = [Fraction(1), Fraction(-1), Fraction(3)]
    for _ in range(100):
        z = [2 * z[0] + z[1] + 1, 2 * z[1] - 1, z[2] / -2 + z[0]]
    return a, z


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
