"""Dimension gauges and covering sums for the two families.

The image family is sized so that its natural covers have bounded,
eventually stationary covering sums under the doubly logarithmic
gauge h(t) = t^2 (log log(1/t))^beta, with beta the construction's
own exponent.  Perturbing the gauge exponent tips the sums to 0 or
infinity, which locates the generalized dimension of the image set;
power gauges, the beta = 0 case h(t) = t^alpha, do the same for the
pre-image family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .construction import (
    LOG2,
    MIN_LEVEL,
    ConstructionParams,
    _check_level,
)

_GAUGE_DOMAIN_EDGE = -1.0  # log t < -1 keeps log(1/t) > 1, so loglog(1/t) > 0


@dataclass(frozen=True)
class Gauge:
    """h(t) = t^n (log log(1/t))^beta on 0 < t < e^-1.

    Finite n > 0 is the power (2 for the planar image covers), finite
    beta >= 0 the doubly logarithmic correction; Gauge(alpha, 0) is the
    power gauge t^alpha of ordinary box and Hausdorff dimension checks.
    """

    n: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.n) and self.n > 0.0):
            raise ValueError(f"n must be finite and positive, got {self.n}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be finite and non-negative, got {self.beta}")


def gauge_log_eval(gauge: Gauge, log_t: float) -> float:
    """log h(t) at t = exp(log_t), for scales far below double range."""
    if not log_t < _GAUGE_DOMAIN_EDGE:
        raise ValueError(
            f"gauge defined for log t < {_GAUGE_DOMAIN_EDGE}, got log t = {log_t}"
        )
    return gauge.n * log_t + gauge.beta * math.log(math.log(-log_t))


# Largest level natural_cover_sum("pre", ...) accepts.  Its log adds
# k log 2 to n k log sigma, terms of size k that cancel at the box
# dimension, so its rounding grows like k.  A 60-digit evaluation in the
# tests puts the last power of ten where the log stays within 1e-6 of
# exact (1e-6 relative on the sum) at 1e9.
PRE_COVER_MAX_LEVEL = 10**9


def natural_cover_sum(side: str, gauge: Gauge, k: int, params: ConstructionParams) -> float:
    """Natural log of the canonical level-k covering sum under gauge.

    side "image": the 2^(2k) level-k image squares cover the planar
    image set.  side "pre": the 2^k level-k intervals of length
    sigma^k cover one axis factor of the pre-image set; the per-axis
    count is the relevant one for the axis dimension, measured with
    power gauges Gauge(alpha, 0).  The gauge reads the side t of each
    cover; every level k >= 3 lies in its domain log t < -1, as both
    sides have log t < 3 log(1/2).  Levels pass the depth gate
    _check_level; side "pre" also raises ValueError past
    PRE_COVER_MAX_LEVEL.
    """
    if side not in ("pre", "image"):
        raise ValueError(f"side must be 'pre' or 'image', got {side!r}")
    _check_level(k)
    if side == "image":
        return float(_image_log_sums(gauge, np.array([float(k)]), params)[0])
    if k > PRE_COVER_MAX_LEVEL:
        raise ValueError(
            f"pre-image cover sums need k <= {PRE_COVER_MAX_LEVEL}, got {k}: past it the"
            " rounding of the two terms of size k they add exceeds 1e-6"
        )
    return k * LOG2 + gauge_log_eval(gauge, k * math.log(params.sigma))


def _image_log_sums(gauge: Gauge, ks: np.ndarray, params: ConstructionParams) -> np.ndarray:
    """natural_cover_sum("image", gauge, k) at each level of the float
    array ks.  With log(1/t) = k log 2 + (beta/2) loglog k, the count
    2^(2k) and the gauge's t^n combine to (2 - n) k log 2 before any
    rounding, which is exactly 0 for the planar n = 2: the sum carries no
    terms of size k that cancel."""
    half_beta_llk = 0.5 * params.beta * np.log(np.log(ks))
    n = gauge.n
    return (
        (2.0 - n) * ks * LOG2
        - n * half_beta_llk
        + gauge.beta * np.log(np.log(ks * LOG2 + half_beta_llk))
    )


@dataclass(frozen=True)
class ScanRow:
    beta_prime: float
    level: int
    log_sum: float


@dataclass(frozen=True)
class ScanTable:
    rows: tuple[ScanRow, ...]
    verdicts: dict


_STATIONARY_BAND = (0.5, 1.1)


def threshold_scan(
    beta_primes: Sequence[float],
    levels: Sequence[int],
    params: ConstructionParams,
) -> ScanTable:
    """Covering-sum trends of the image family under gauges h_{2, beta'}.

    Verdict per beta': "stationary" when every sampled sum stays inside
    [0.5, 1.1] (the regime beta' = beta, where the sums admit a mass
    distribution), "decreasing" or "growing" for strictly monotone log
    sums (beta' below or above the construction beta; the sums move
    like (log k)^(beta' - beta)), "mixed" otherwise.  Levels should be
    a geometric grid reaching 10^6 or beyond: against a loglog-speed
    trend a linear grid resolves nothing.  Levels pass the depth gate
    _check_level, and each beta' takes its sums from one _image_log_sums
    call, bit for bit natural_cover_sum("image", ...) at each level.
    """
    lvls = sorted(set(int(k) for k in levels))
    if len(lvls) < 2:
        raise ValueError("need at least two levels to read a trend")
    _check_level(lvls[0])
    _check_level(lvls[-1])
    ks = np.array(lvls, dtype=np.float64)
    rows = []
    verdicts: dict = {}
    for bp in beta_primes:
        g = Gauge(2, float(bp))
        sums = _image_log_sums(g, ks, params).tolist()
        rows.extend(ScanRow(float(bp), k, s) for k, s in zip(lvls, sums))
        lo, hi = (math.log(_STATIONARY_BAND[0]), math.log(_STATIONARY_BAND[1]))
        if all(lo <= s <= hi for s in sums):
            verdicts[float(bp)] = "stationary"
        elif all(b < a for a, b in zip(sums, sums[1:])):
            verdicts[float(bp)] = "decreasing"
        elif all(b > a for a, b in zip(sums, sums[1:])):
            verdicts[float(bp)] = "growing"
        else:
            verdicts[float(bp)] = "mixed"
    return ScanTable(tuple(rows), verdicts)


def expected_trend(beta_prime: float, beta: float) -> str:
    """The verdict threshold_scan should read at beta' for a construction
    of exponent beta: the sums move like (log k)^(beta' - beta)."""
    if beta_prime < beta:
        return "decreasing"
    return "stationary" if beta_prime == beta else "growing"


@dataclass(frozen=True)
class MassDistributionReport:
    """Infimum of the stationary covering sums and the induced bound.

    Any measure spreading mass evenly over the image cells gives every
    small set U mass at most gauge(diam U) * 4 / m; equivalently the
    generalized measure of the image set is at least lower_bound = m/4.
    first_admissible_k is always MIN_LEVEL: the gauge needs log t < -1,
    and every level-k image side has log t = -k log 2 - (beta/2) loglog k
    < -3 log 2 < -2 for k >= 3 and beta > 0.
    """

    m: float
    at_k: int
    lower_bound: float
    first_admissible_k: int


def mass_distribution_bound(
    params: ConstructionParams, k_max: int = 10**6
) -> MassDistributionReport:
    """Minimize the stationary covering sum over levels up to k_max.

    The sums are those of the image covers under the construction's
    own gauge h_{2, beta}; other exponents have no stationary sums to
    minimize.  The sums increase toward 1 after an initial dip, so m
    sits at a small level and is stable under any larger k_max.

    The scan stops early at a level past which no sum can beat the
    best one found.  With L = log 2 and u(k) = kL + (beta/2) loglog k
    = -log t_k, the level-k sum is ln S(k) = beta log(log u(k) / log k).
    As loglog k > 0 for k >= 3, u(k) > kL, so ln S(k) > LB(k) =
    beta log(log(kL) / log k), and LB increases in k (L < 1).  Levels
    are scanned in growing chunks, and the scan ends once LB at the
    next unscanned level exceeds the best sum: every true sum past it
    is larger.  The float sums (_image_log_sums) carry no terms of size
    k, so their rounding error is a few 1e-16 times beta loglog k, far
    below that margin where the scan stops, and the result is that of a
    full scan to k_max (the tests compare the two).
    """
    if k_max < MIN_LEVEL:
        raise ValueError(f"k_max must be at least {MIN_LEVEL}, got {k_max}")

    def lower_bound(k: int) -> float:
        return params.beta * math.log(math.log(k * LOG2) / math.log(k))

    own_gauge = Gauge(2.0, params.beta)
    best = math.inf
    best_k = MIN_LEVEL
    start, chunk = MIN_LEVEL, 64
    while start <= k_max and not lower_bound(start) > best:
        ks = np.arange(start, min(start + chunk, k_max + 1), dtype=np.float64)
        ln_sum = _image_log_sums(own_gauge, ks, params)
        i = int(np.argmin(ln_sum))
        if ln_sum[i] < best:
            best = float(ln_sum[i])
            best_k = int(ks[i])
        start += chunk
        chunk = min(2 * chunk, 1 << 20)
    try:
        m = math.exp(best)
    except OverflowError:
        raise ValueError(
            f"mass bound exp(min log-sum) = exp({best!r}) overflows double precision"
        ) from None
    return MassDistributionReport(m, best_k, m / 4.0, MIN_LEVEL)


def box_dimension_pre(params: ConstructionParams) -> float:
    """Box-counting dimension of the planar pre-image family:
    log(2^(2k)) / log(1 / sigma^k) = 2 log 2 / log(1/sigma) at every
    level k (the covers are exactly self-similar), below 2 for every
    sigma < 1/2.
    """
    return 2.0 * LOG2 / math.log(1.0 / params.sigma)
