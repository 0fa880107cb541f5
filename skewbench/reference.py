"""A fixed reference kernel that tracks the host's momentary speed.

The shared host this benchmark was built on runs the same pure-Python
``Fraction`` code 1.3 to 2.6 times slower for stretches of seconds to
minutes. Timing this kernel between ops and scaling each op by
``NOMINAL_NS / kernel time`` expresses every time metric at one fixed host
speed: in repeated 5 s chunks the raw time of a ``sample --dim 4`` op moved
between 29 and 41 ms while its ratio to the Fraction half of this kernel
stayed within 9.2-9.7.

The kernel does two kinds of exact elimination: ``Fraction`` Gauss-Jordan,
which is what skewlie does today, and fraction-free (Bareiss) elimination
on plain integers, which is what an integer elimination core would do. A
slow state that hits one kind harder than the other then moves the scale by
the average of the two. Over twelve 5 s chunks the raw time of each half
moved by 60% while the ratio of the two stayed within 0.77-0.82, so today
both kinds slow down alike. The kernel is the benchmark's own code, so no
change to skewlie moves it.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# kernel time on the host the benchmark was calibrated on, in its fast state
# (Python 3.11, x86_64); it only sets the scale of the normalised figures
NOMINAL_NS = 5_000_000

_rng = random.Random(0)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(10)]
           for _ in range(10)]
_INT_MATRIX = [[_rng.randint(-99, 99) for _ in range(30)] for _ in range(30)]


def _gauss_jordan() -> None:
    a = [row[:] for row in _MATRIX]
    n = len(a)
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]


def _bareiss() -> int:
    a = [row[:] for row in _INT_MATRIX]
    n, prev = len(a), 1
    for k in range(n - 1):
        piv = next(r for r in range(k, n) if a[r][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1]


def kernel_ns(repeats: int = 1) -> int:
    """Median wall time of the kernel over ``repeats`` back-to-back runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        _gauss_jordan()
        _bareiss()
        times.append(time.perf_counter_ns() - t0)
    return int(statistics.median(times))
