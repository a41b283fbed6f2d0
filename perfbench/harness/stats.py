"""Order statistics used by every metric the benchmark reports."""

from __future__ import annotations

import math
import statistics

#: Tail percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of the ``p``-th percentile among ``n`` values."""
    # Rounded first: 99.9 / 100 * 10_000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile (``p`` in (0, 100]) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    return float(data[_rank(p, len(data)) - 1])


def median(values) -> float:
    data = list(values)
    if not data:
        raise ValueError("median of an empty sample")
    return float(statistics.median(data))


def tail_percentile(values) -> tuple[float, float]:
    """``(p, value)`` for the highest percentile with >= 10 samples beyond it.

    With nearest rank, ``n - rank(p)`` samples lie strictly
    beyond the ``p``-th percentile; the first ladder entry for which that
    count reaches :data:`MIN_BEYOND` is reported.  Samples too small for
    even the median to qualify report the median.
    """
    data = sorted(values)
    n = len(data)
    if not n:
        raise ValueError("tail percentile of an empty sample")
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p, percentile(data, p)
    return 50.0, percentile(data, 50.0)


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method); a zero median with a zero spread reads as 0.
    """
    data = list(values)
    if len(data) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(data, n=4)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return abs(q3 - q1) / abs(q2)


def quartiles(values) -> tuple[float, float, float]:
    data = list(values)
    if len(data) < 2:
        v = float(data[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return float(q1), float(q2), float(q3)
