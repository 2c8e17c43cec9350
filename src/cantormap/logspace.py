"""Arithmetic on positive reals carried as natural logarithms.

Covering sums and series terms in this package live at scales like
exp(-1e9), far below the double-precision floor.  Values are therefore
kept as logs and only exponentiated when provably moderate.
"""

from __future__ import annotations

import math
import sys

# exp(x) is a finite double for every x below this, the log of the largest
LOG_DOUBLE_MAX = math.log(sys.float_info.max)


def log_add(log_x: float, log_y: float) -> float:
    """log(exp(log_x) + exp(log_y)) without leaving log space."""
    if log_x < log_y:
        log_x, log_y = log_y, log_x
    if log_y == float("-inf"):
        return log_x
    return log_x + math.log1p(math.exp(log_y - log_x))
