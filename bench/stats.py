"""Order statistics shared by the benchmark runner and the steadiness command.

Standard library only, so the runner process stays light.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# Percentiles considered for ``latency_tail_s``, lowest first.  A coarse
# ladder keeps the chosen percentile from flickering when the operation
# count of a run moves by one or two.
TAIL_LADDER = ("50", "75", "90", "95", "99", "99.9")
TAIL_MIN_BEYOND = 10


def tail_latency(samples):
    """Highest ladder percentile with at least ten samples beyond it.

    Uses the nearest-rank definition: the p-th percentile of n sorted
    samples is the one at 1-based rank ceil(p n / 100), and the samples
    beyond it are the n - rank that follow it in sorted order.  Returns
    (percentile, value), or None when even the median has fewer than
    ten samples beyond it (fewer than 20 samples).
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(Fraction(p) * n / 100))
        if n - rank >= TAIL_MIN_BEYOND:
            best = (float(p), xs[rank - 1])
    return best


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def verdict(first, second, bound: float, judge_spread: bool = True) -> str:
    """Compare two sets of runs of the same code against a metric's bound.

    "unresolved" when either set spreads wider than the bound (the
    spread of ``setup_s`` is not judged, see ``judge_spread``),
    "disagree" when the medians differ by more than the bound, else
    "agree".
    """
    if judge_spread and max(spread(first), spread(second)) > bound:
        return "unresolved"
    m1, m2 = statistics.median(first), statistics.median(second)
    return "disagree" if abs(m2 - m1) > bound * abs(m1) else "agree"
