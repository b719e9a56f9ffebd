"""Run-to-run spread and the sample count behind a p90, in plain Python
so the orchestrator needs neither NumPy nor the package under test."""

from __future__ import annotations

import math
import statistics


def beyond(values, threshold: float) -> int:
    """How many samples lie strictly above ``threshold``: a p90 is only
    reported as trustworthy when at least ten lie beyond it."""
    return sum(1 for v in values if v > threshold)


def spread(values) -> dict:
    """Median and the inter-quartile distance as a share of the median,
    with the quartiles ``statistics.quantiles(values, n=4)`` gives."""
    data = list(values)
    median = statistics.median(data)
    if len(data) < 2:
        return {"median": median, "iqr_share": 0.0, "n": len(data)}
    q1, _, q3 = statistics.quantiles(data, n=4)
    share = (q3 - q1) / abs(median) if median else math.inf
    return {"median": median, "iqr_share": share, "n": len(data)}
