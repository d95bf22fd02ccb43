"""Order statistics and span arithmetic used by the benchmark report."""

from __future__ import annotations

import math


def nearest_rank(sorted_values, pct: int):
    """The pct-th percentile by the nearest-rank rule (1-based rank ceil(pct*n/100))."""
    n = len(sorted_values)
    k = max(1, math.ceil(pct * n / 100))
    return sorted_values[k - 1]


def tail_percentile(n: int, beyond: int = 10) -> int | None:
    """Highest whole percentile that leaves at least `beyond` samples above it.

    With the nearest-rank rule the p-th percentile of n samples is the
    ceil(p*n/100)-th smallest, so n - ceil(p*n/100) samples lie beyond it.
    None when even the median leaves fewer than `beyond` samples.
    """
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= beyond:
            return p
    return None


def self_times(spans) -> list:
    """Self time of each span: its duration minus the time its direct children cover.

    `spans` is a sequence of (start, end, parent) with parent an index into
    the same sequence or -1.  The program is single-threaded, so children of
    one span never overlap each other and lie inside their parent; their
    durations therefore add up to the time they cover.
    """
    out = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
