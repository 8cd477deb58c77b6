"""Summary statistics the benchmark reports.

Pure functions over lists of numbers, with no dependency on the
program under test, so the unit tests can pin them on synthetic data.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Percentiles the tail rule may pick from, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it may be reported.
SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The *p*-th percentile of *values* by linear interpolation between
    closest ranks (numpy's default ``linear`` method)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_needed(p: float) -> int:
    """Fewest samples for which percentile *p* has
    :data:`SAMPLES_BEYOND` samples beyond it."""
    return math.ceil(SAMPLES_BEYOND * 100.0 / (100.0 - p) - 1e-6)


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile in :data:`TAIL_LADDER` with at least
    :data:`SAMPLES_BEYOND` of *count* samples beyond it, or ``None``
    when even the median has too few."""
    allowed = [p for p in TAIL_LADDER if count >= samples_needed(p)]
    return allowed[-1] if allowed else None


def loglog_exponent(sizes: Sequence[float], times: Sequence[float]) -> float:
    """Least-squares slope of ``log(time)`` against ``log(size)``: the
    empirical scaling exponent (1 = linear, 2 = quadratic)."""
    if len(sizes) != len(times):
        raise ValueError("sizes and times differ in length")
    points = [(math.log(s), math.log(t)) for s, t in zip(sizes, times)]
    xs = [x for x, _ in points]
    if len(set(xs)) < 2:
        raise ValueError("need at least two distinct sizes")
    mean_x = statistics.fmean(xs)
    mean_y = statistics.fmean(y for _, y in points)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return sxy / sxx


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)``
    gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
