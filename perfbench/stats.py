"""The statistics the benchmark reports and the rule it judges a change by."""

from __future__ import annotations

import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (statistics.quantiles, n=4)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def steady(values: list[float], bound: float) -> bool:
    """True when the relative spread of `values` is within a third of `bound`."""
    return relative_spread(values) <= bound / 3


def worsening(before: float, after: float, better: str) -> float:
    """How much worse `after` is than `before`, as a share of `before`.

    Negative when `after` is better. `better` is "lower" or "higher".
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    change = (after - before) / before
    return change if better == "lower" else -change


def within_bound(before: float, after: float, better: str, bound: float) -> bool:
    """True when `after` is no worse than `before` by more than `bound`."""
    return worsening(before, after, better) <= bound
