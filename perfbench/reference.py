"""The host-speed reference loop.

The benchmark runs on shared hosts whose speed drifts by a third within
minutes as other load comes and goes, which no length of run averages out.
So before and after every pass the worker times this fixed loop -- the
same mix of interpreter calls, small NumPy reductions, larger NumPy array
work, a QUADPACK integral with a Python integrand and float formatting
that the program spends its time on -- and scales the pass's times by
``NOMINAL_S / measured`` (the mean of the two timings): they are reported
as they would read on a host where the loop takes ``NOMINAL_S``.  The
loop never touches the program, so a change to the program moves the
scaled figures as it moves the raw ones; the raw figures are kept in each
run's record.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import integrate

NOMINAL_S = 0.013


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _call(p, x):
    return math.exp(-p.a * x) * p.b + math.log1p(x)


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference loop."""
    rng = np.random.default_rng(12345)
    big = rng.random(4096)
    point = _Point(1.0, 2.0)
    start = time.perf_counter()
    acc = 0.0
    for i in range(4000):
        acc += _call(point, i * 1e-4) + _call(point, i * 2e-4)
    for _ in range(1500):
        x = rng.random(16)
        acc += float(np.expm1(-x) @ x)
    for _ in range(60):
        acc += float(np.exp(-big).sum())
    for k in range(15):
        acc += integrate.quad(lambda y: math.exp(-0.1 * y) / (1.0 + y * y), 0.0, 200.0 + k,
                              weight="cos", wvar=3.0, limit=400)[0]
    text = ",".join(f"{v:.17g}" for v in big[:1500])
    elapsed = time.perf_counter() - start
    if not (math.isfinite(acc) and text):
        raise RuntimeError("reference loop produced no result")
    return elapsed
