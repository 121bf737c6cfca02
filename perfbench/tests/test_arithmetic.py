"""Checks of the benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from stats import (  # noqa: E402
    percentile,
    samples_beyond,
    self_times,
    tail_percentile,
    tail_pool_passes,
    time_to_accuracy,
)
from tracer import Tracer  # noqa: E402


def test_tail_pool_holds_at_least_128_requests():
    assert tail_pool_passes(1928) == 1
    assert tail_pool_passes(178) == 1
    assert tail_pool_passes(128) == 1
    assert tail_pool_passes(33) == 4
    assert tail_pool_passes(32) == 4
    assert tail_pool_passes(1) == 128
    with pytest.raises(ValueError):
        tail_pool_passes(0)


def test_tail_percentile_leaves_ten_samples_beyond_in_the_pool():
    assert tail_percentile(1000) == pytest.approx(99.0)
    assert tail_percentile(178) == pytest.approx(100.0 * 168 / 178)
    assert tail_percentile(32) == pytest.approx(100.0 * 118 / 128)
    assert tail_percentile(33) == pytest.approx(100.0 * 122 / 132)
    # never below p92
    assert min(tail_percentile(r) for r in range(1, 3000)) >= 92.0


@pytest.mark.parametrize("per_pass,passes", [(32, 4), (32, 5), (33, 7), (178, 1), (178, 9), (1928, 83)])
def test_tail_percentile_over_pooled_passes(per_pass, passes):
    values = [float(i) for i in range(per_pass * passes)]
    pct = tail_percentile(per_pass)
    pool = tail_pool_passes(per_pass)
    # ten samples beyond per pool of passes (rounded down), at least ten in a run
    beyond = 10 * passes // pool
    assert samples_beyond(values, pct) == beyond
    assert percentile(values, pct) == values[-beyond - 1]
    assert beyond >= 10


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 100) == 100.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_time_to_accuracy():
    # se twice the target: four times the paths, so four times the time
    assert time_to_accuracy([(2.0, 2e-4)]) == pytest.approx(8.0)
    # an exact result costs its own time; se at the target costs the same
    assert time_to_accuracy([(0.5, None), (1.0, 1e-4)]) == pytest.approx(1.5)
    # a better-than-target estimate would need fewer paths
    assert time_to_accuracy([(1.0, 5e-5)]) == pytest.approx(0.25)


def test_self_time_from_nested_spans():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),    # child
        (2.0, 3.0, 1),    # grandchild
        (5.0, 9.0, 0),    # second child
    ]
    own = self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(own) == pytest.approx(10.0)


def test_tracer_records_parents_errors_and_sizes():
    tracer = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_leaf = tracer.wrap(leaf, "curves.leaf", "curves")

    def outer():
        traced_leaf(1)
        try:
            traced_leaf(-1)
        except ValueError:
            pass
        return 7

    traced_outer = tracer.wrap(outer, "multicurve.outer", "multicurve")
    assert traced_outer() == 7  # outside a request: nothing recorded
    assert len(tracer) == 0
    assert tracer.run_request(0, traced_outer) == 7
    names = [tracer.names[n] for n in tracer.name]
    assert names == ["bench.request", "multicurve.outer", "curves.leaf", "curves.leaf"]
    assert list(tracer.parent) == [-1, 0, 1, 1]
    assert list(tracer.error) == [0, 0, 0, 1]
    assert list(tracer.request) == [0, 0, 0, 0]
    assert all(end >= start for start, end in zip(tracer.start, tracer.end))
