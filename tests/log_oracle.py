"""Log-space sum for tests that total many series terms.

Shifting by the largest term keeps the sum finite for logs far below
double range.
"""

import math


def log_sum(logs):
    """log of the sum of exp(v) over all v, stable for any magnitudes."""
    items = list(logs)
    if not items:
        raise ValueError("log_sum needs at least one term")
    m = max(items)
    if m == float("-inf") or math.isnan(m):
        return m
    return m + math.log(math.fsum(math.exp(v - m) for v in items))
