"""Brute-force oracle for measure.mass_distribution_bound.

Scans every level from the first admissible one up to k_max, in chunks
of 2^20 levels, with the library's float formula for the level-k
log-sum: with L = log 2 and u = kL + (beta/2) loglog k = -log t_k, the
count 2^(2k) and t_k^2 cancel before any rounding, leaving
-beta loglog k + beta log log u.  The library stops early by a
lower-bound argument; its result must equal this one.
"""

import math

import numpy as np

from cantormap.construction import LOG2, MIN_LEVEL
from cantormap.measure import _GAUGE_DOMAIN_EDGE


def brute_mass_bound(params, k_max):
    """(m, at_k, lower_bound, first_admissible_k) of a scan of every level."""
    beta = params.beta

    def log_t_of(ks):
        return -ks * LOG2 - 0.5 * beta * np.log(np.log(ks))

    first = MIN_LEVEL
    while not log_t_of(np.array([float(first)]))[0] < _GAUGE_DOMAIN_EDGE:
        first += 1
    best, best_k = math.inf, first
    chunk = 1 << 20
    for start in range(first, k_max + 1, chunk):
        ks = np.arange(start, min(start + chunk, k_max + 1), dtype=np.float64)
        half_beta_llk = 0.5 * beta * np.log(np.log(ks))
        ln_sum = beta * np.log(np.log(ks * LOG2 + half_beta_llk)) - 2.0 * half_beta_llk
        i = int(np.argmin(ln_sum))
        if ln_sum[i] < best:
            best, best_k = float(ln_sum[i]), int(ks[i])
    m = math.exp(best)
    return m, best_k, m / 4.0, first
