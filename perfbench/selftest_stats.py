"""Tests of the benchmark's statistics.

    python3 -m pytest perfbench/selftest_stats.py
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import REFERENCE_PROBE_NS, at_reference  # noqa: E402
from stats import nearest_rank, self_times, tail_percentile  # noqa: E402


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in range(20, 3000):
        p = tail_percentile(n)
        values = list(range(n))
        beyond = sum(1 for v in values if v > nearest_rank(values, p))
        assert beyond >= 10, n
        if p < 99:
            higher = nearest_rank(values, p + 1)
            assert sum(1 for v in values if v > higher) < 10, n


def test_tail_percentile_at_workload_sizes():
    assert tail_percentile(747) == 98  # 733rd of 747: 14 beyond, p99 leaves 7
    assert tail_percentile(700) == 98
    assert tail_percentile(1000) == 99
    assert tail_percentile(999) == 98
    assert tail_percentile(100) == 90
    assert tail_percentile(20) == 50
    assert tail_percentile(19) is None


def test_nearest_rank():
    s = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert nearest_rank(s, 50) == 5
    assert nearest_rank(s, 90) == 9
    assert nearest_rank(s, 1) == 1


def test_self_time_with_sequential_and_nested_children():
    spans = [
        (0, 100, -1),  # root
        (10, 30, 0),  # first child
        (40, 90, 0),  # second child, after the first
        (50, 60, 2),  # grandchild inside the second child
        (120, 130, -1),  # a second root with no children
    ]
    assert self_times(spans) == [100 - 20 - 50, 20, 50 - 10, 10, 10]


def test_self_times_sum_to_root_durations():
    spans = [(0, 1000, -1)]
    for k in range(10):
        spans.append((k * 100, k * 100 + 50, 0))
        spans.append((k * 100 + 10, k * 100 + 20, len(spans) - 1))
    assert sum(self_times(spans)) == 1000
    assert not any(math.isnan(s) or s < 0 for s in self_times(spans))


def test_at_reference_cancels_the_machine_speed():
    ref = REFERENCE_PROBE_NS
    assert at_reference(1000, ref, ref) == 1000
    # a machine half as fast takes twice as long for the step and the probes
    assert at_reference(2000, 2 * ref, 2 * ref) == 1000
    # the speed while the step ran is the mean of the probes around it
    assert at_reference(1500, ref, 2 * ref) == 1000
    # a library change that halves the step halves the reported time
    assert at_reference(500, 2 * ref, 2 * ref) == 250
