"""Medians, quartiles and the same/worse/unresolved rule (stdlib only)."""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worsening(base: float, new: float, better: str) -> float:
    """By what share of ``base`` the reading got worse (negative = better)."""
    if not base:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(base_values, new_values, better: str, bound: float) -> str:
    """The rule of the choosing-metrics guide, section 6.5.

    ``worse`` when the new median is worse than the base median by more
    than ``bound``; otherwise ``same`` — unless either side's own spread is
    wider than ``bound``, in which case the pair is ``unresolved``, except
    when every new reading is better than every base reading.
    """
    base_med = quartiles(base_values)[1]
    new_med = quartiles(new_values)[1]
    if better == "lower":
        all_better = max(new_values) < min(base_values)
    else:
        all_better = min(new_values) > max(base_values)
    if all_better:
        return "same"
    if max(spread(base_values), spread(new_values)) > bound:
        return "unresolved"
    return "worse" if worsening(base_med, new_med, better) > bound else "same"
