"""Order statistics for timing samples: the median and a tail percentile.

A tail percentile is only meaningful when enough samples lie beyond it, so
the reported tail is the highest rung of ``TAIL_LADDER`` with at least
``TAIL_BEYOND`` samples strictly above its value.  With fewer than twenty
samples no rung qualifies and the maximum is reported, labelled ``max``.
"""
from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
#: Samples that must lie strictly above a reported tail percentile.
TAIL_BEYOND = 10


def nearest_rank(ascending: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of an ascending list."""
    k = max(1, math.ceil(q / 100.0 * len(ascending)))
    return ascending[k - 1]


def tail(values: list[float]) -> tuple[str, float]:
    """(label, value) of the highest ladder percentile with enough samples beyond."""
    ascending = sorted(values)
    best = ("max", ascending[-1])
    for q in TAIL_LADDER:
        value = nearest_rank(ascending, q)
        beyond = len(ascending) - sum(1 for x in ascending if x <= value)
        if beyond >= TAIL_BEYOND:
            best = (f"p{q:g}", value)
    return best


def summarize(values: list[float]) -> dict:
    """Median, tail percentile and sample count; zeros for no samples."""
    if not values:
        return {"median": 0.0, "tail": "none", "tail_value": 0.0, "n": 0}
    label, value = tail(values)
    return {"median": statistics.median(values), "tail": label,
            "tail_value": value, "n": len(values)}
