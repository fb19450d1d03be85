"""Order statistics shared by the benchmark and its steadiness check."""

from __future__ import annotations

import statistics


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q = statistics.quantiles(values, n=4)
    return float(q[0]), float(q[2])


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median(values))



def best_total(rows) -> float:
    """Sum over positions of the shortest lap at that position.

    Each row holds the lap times of one repeat of the same fixed work, cut
    at the same points. On a shared host other tenants lengthen laps at
    random; the shortest of several repeats of each lap is the closest to
    the work's own cost, and summing them gives the time of one
    uninterrupted repeat.
    """
    rows = [list(r) for r in rows]
    if not rows:
        raise ValueError("best_total of no repeats")
    if len({len(r) for r in rows}) != 1:
        raise ValueError(f"repeats cut into different numbers of laps: "
                         f"{sorted({len(r) for r in rows})}")
    return float(sum(min(col) for col in zip(*rows)))
