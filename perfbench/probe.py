"""A fixed slice of pure-Python rational arithmetic that gauges machine speed.

It shares the interpreter, the big-integer code and the allocator with the
library's hot paths, so a phase of contention on a shared machine slows both
by about the same factor.  The benchmark runs it between cases and inside
every set-up child.
"""

import time
from fractions import Fraction

TERMS = 350
# The probe's time on a 2-core Intel Xeon VM (Python 3, no other load), the
# scale that normalised times are quoted at.  Over 2000 consecutive readings
# in a quiet phase the median was 0.95-0.98 ms and the minimum 0.87 ms; a
# contended phase read 1.5 ms.
NOMINAL_S = 0.001


def probe() -> float:
    """Seconds taken by the fixed slice of work."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, TERMS):
        s += Fraction(i, 7 * i + 3)
    return time.perf_counter() - t0
