"""Order statistics shared by the runner, the sweep and the compare tool.

Stdlib only.  Quartiles follow ``statistics.quantiles(values, n=4)`` so
that the spreads printed here are the ones the acceptance rule uses.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``; a single value is its own spread.
    The middle cut of ``quantiles(n=4)`` is the median."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 if median 0)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def tail(values) -> tuple[float, int]:
    """``(value, percentile)``: the highest whole percentile that still
    has at least :data:`TAIL_BEYOND` samples above its nearest-rank
    position.  With too few samples the maximum is returned as p100."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100
    percentile = 100 * (count - TAIL_BEYOND) // count
    while percentile > 0:
        rank = math.ceil(percentile * count / 100)
        if count - rank >= TAIL_BEYOND:
            return ordered[max(rank - 1, 0)], percentile
        percentile -= 1
    return ordered[0], 0


def summary(values) -> dict:
    """Sample count, median, quartiles and tail of one timing series."""
    values = list(values)
    if not values:
        return {"n": 0}
    q1, median, q3 = quartiles(values)
    tail_value, tail_pct = tail(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "tail": tail_value, "tail_pct": tail_pct,
            "min": min(values), "max": max(values)}
