"""A fixed reference loop that ``run.py`` times before every pass.

The host the benchmark was built on (a 2-vCPU VM of a shared Xeon host)
changes speed by up to 2x, in phases from seconds to a few minutes long in
which nothing runs at full speed.  Every statistic of raw pass times spread
by up to 30% between 30-second runs, whether mean, median or the fastest
time.  This loop does the kinds of work the package does (interpreted
integer arithmetic, dicts, ``Fraction`` sums, small numpy convolutions,
string handling) but none of the package's code, so it slows with the host
and not with the program; ``pass_ref_ratio`` divides the mean pass time by
its mean time in the same run.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np


def reference_work() -> int:
    """About 10 ms of mixed work on the host described above."""
    total, buckets = 0, {}
    for i in range(16000):
        total += (i * i + 7) % 1009
        buckets[i % 97] = buckets.get(i % 97, 0) + total
    harmonic = Fraction(0)
    for i in range(1, 300):
        harmonic += Fraction(1, i)
    a = np.arange(32, dtype=np.int64)
    for _ in range(240):
        a = np.convolve(a, [1, 3])[:32] % 1009
    digits = "".join(str(i) for i in range(2000)).split("9")
    return total + len(buckets) + harmonic.denominator % 7 + int(a[0]) + len(digits)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
