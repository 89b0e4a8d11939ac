"""Machine-speed calibration for the end-to-end timings.

On a shared machine the CPU's speed drifts as other tenants load it: a
pure-Python loop has been seen to run 15-40% slower or faster for
seconds at a time, in wall and CPU time alike.  Medians over a run do not
remove that, so the gated timings are rescaled: each is divided by the
time of a fixed standard-library kernel (Fraction sums, list
comprehensions, big-integer products: the kinds of work pascalhankel
does) measured next to it, and multiplied by NOMINAL_S.  The result
reads as seconds on a machine where the kernel takes NOMINAL_S.  Raw wall
times are reported beside the rescaled ones.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.003
_MODULUS = 7**3900


def _kernel() -> float:
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i, i + 7)
    rows = [[i * j % 97 for j in range(40)] for i in range(40)]
    for row in rows:
        [u + 3 * v for u, v in zip(row, rows[0])]
    x = 3**4000
    for _ in range(40):
        x = x * 12345 % _MODULUS
    return perf_counter() - t0


def kernel_seconds() -> float:
    """Median wall time of three runs of the fixed kernel (about 3 ms
    each), so that one interrupted run does not count."""
    return sorted(_kernel() for _ in range(3))[1]


def rescale(seconds: float, *kernels: float) -> float:
    """`seconds` at the speed the kernel times (measured around it) imply."""
    return seconds * NOMINAL_S * len(kernels) / sum(kernels)


def rescale_ops(seconds: list, kernels: list) -> list:
    """Rescale op i of a pass by the median of the kernel times nearest it:
    kernels[i] and kernels[i + 1] were measured just before and after it,
    and one more on each side outvotes a single disturbed sample."""
    return [s * NOMINAL_S / statistics.median(kernels[max(0, i - 1):i + 3])
            for i, s in enumerate(seconds)]
