"""The machine's speed, read by a fixed probe run next to every timed step.

The benchmark runs on a few cores of a shared host whose speed changes
from one fraction of a second to the next: the same code runs up to 1.7
times slower while the host is busy, in spells of 0.2 s to minutes.  A
case's wall time alone is therefore a reading of the host as much as of
the library.  So every timed step is bracketed by a probe: a fixed piece
of pure-Python work of the library's kind (small objects, many calls,
integer arithmetic, dict lookups) that never changes with the library.  A
step's time is reported at the reference speed,

    reported = measured * REFERENCE_PROBE_NS / mean(probe before, probe after)

which cancels the host's speed while the step ran and leaves the library's
own cost.  A library change that makes a step twice as fast halves the
reported time, exactly as it halves the measured one.

In five runs each of serre-lattices and tables-primes on a busy 2-core
host, cases per second, p50 and tail latency spread by 0.27-0.47 of their
median as measured, and by 0.01-0.04 at the reference speed.  Of the
probes tried, this kind tracked the library best; a probe of plain list
arithmetic without calls left spreads of 0.05-0.13.
"""

from __future__ import annotations

import math
import time

# The probe's time on a 2-core Xeon at 2.1 GHz with CPython 3.11.7 in its
# fast spells: reported times are what that machine takes when its host
# leaves it alone.
REFERENCE_PROBE_NS = 280_000


class _Perm:
    __slots__ = ("img",)

    def __init__(self, img):
        self.img = img

    def mul(self, other):
        return _Perm(tuple(other.img[i] for i in self.img))

    def key(self):
        return hash(self.img)


_P = _Perm(tuple((3 * i + 1) % 13 for i in range(13)))
_Q = _Perm(tuple((5 * i + 2) % 13 for i in range(13)))


def _row_gcd(row) -> int:
    g = 0
    for x in row:
        g = math.gcd(g, x)
    return g


def kernel() -> int:
    """Fixed work: permutation products keyed into a dict, then integer row
    elimination with a gcd per row; small objects and many calls, as in the
    library."""
    seen, x = {}, _P
    for k in range(120):
        x = x.mul(_Q if k % 3 else _P)
        seen[x.key()] = k
    m = [[(7 * r + 3 * c * c + r * c) % 19 - 9 for c in range(10)] for r in range(10)]
    acc = 0
    for r in range(10):
        for s in range(r + 1, 10):
            a, b = m[r][r] or 1, m[s][r]
            m[s] = [(x * a - y * b) % 1000003 for x, y in zip(m[s], m[r])]
            acc += _row_gcd(m[s])
    return acc + len(seen)


def probe() -> int:
    """Nanoseconds of the faster of two back-to-back kernel runs."""
    best = None
    for _ in range(2):
        start = time.perf_counter_ns()
        kernel()
        took = time.perf_counter_ns() - start
        best = took if best is None or took < best else best
    return best


def at_reference(ns: float, before: int, after: int) -> float:
    """`ns` measured between probes `before` and `after`, at the reference speed."""
    return ns * REFERENCE_PROBE_NS * 2 / (before + after)
