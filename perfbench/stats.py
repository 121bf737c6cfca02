"""Arithmetic behind the benchmark's reported figures.

Kept free of numpy and of the program under test so the unit tests in
``perfbench/tests`` can check it in isolation.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

# A request's statistical error target: one basis point of standard error.
ACCURACY_TARGET = 1e-4
# "Tail" is the highest percentile with at least this many samples beyond it
# in the pooled latencies of the fewest whole passes that hold at least
# TAIL_MIN_POOL requests, so it is p92 or higher on every workload.
TAIL_SAMPLES_BEYOND = 10
TAIL_MIN_POOL = 128


def tail_pool_passes(samples_per_pass: int) -> int:
    """Passes pooled for the tail: the fewest that hold ``TAIL_MIN_POOL`` requests."""
    if samples_per_pass < 1:
        raise ValueError("a pass needs at least one request")
    return -(-TAIL_MIN_POOL // samples_per_pass)


def tail_percentile(samples_per_pass: int) -> float:
    """Highest percentile leaving ``TAIL_SAMPLES_BEYOND`` samples above it in the pool.

    The percentile is fixed by the size of the workload's request set, not by
    how many passes a run manages, so it does not change when the program
    gets faster.  A run makes at least ``tail_pool_passes`` passes and takes
    the percentile over all of them pooled, so at least
    ``TAIL_SAMPLES_BEYOND`` samples lie beyond it.
    """
    pooled = tail_pool_passes(samples_per_pass) * samples_per_pass
    return 100.0 * (pooled - TAIL_SAMPLES_BEYOND) / pooled


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct`` % at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError("percentile must lie in (0, 100]")
    ordered = sorted(values)
    # the tiny slack keeps 100 * (n - 10) / n from rounding one rank up
    rank = math.ceil(pct / 100.0 * len(ordered) - 1e-9)
    return ordered[max(rank, 1) - 1]


def samples_beyond(values: Sequence[float], pct: float) -> int:
    """Number of samples strictly above the nearest-rank percentile."""
    cut = percentile(values, pct)
    return sum(1 for v in values if v > cut)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def time_to_accuracy(items: Iterable[tuple]) -> float:
    """Seconds needed for every request's result to reach the accuracy target.

    ``items`` holds ``(elapsed_s, std_error)`` per request.  A Monte Carlo
    estimate with standard error ``se`` reaches the target after
    ``elapsed * (se / target)**2`` (error shrinks as one over the square
    root of the path count).  An exact result (``std_error`` is ``None``)
    is already at the target and costs its own elapsed time.
    """
    total = 0.0
    for elapsed, std_error in items:
        if std_error is None:
            total += elapsed
        else:
            total += elapsed * (std_error / ACCURACY_TARGET) ** 2
    return total


def self_times(spans: Sequence[tuple]) -> list:
    """Self time of each span: its duration minus the durations of its children.

    ``spans`` holds ``(start, end, parent_index)`` with ``parent_index`` -1
    for a root.  Children of one span run one after another on one thread,
    so they never overlap and their durations add.
    """
    own = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
