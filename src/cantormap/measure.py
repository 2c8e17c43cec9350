"""Dimension gauges and covering sums for the two families.

The image family is sized so that its natural covers have bounded,
eventually stationary covering sums under the doubly logarithmic
gauge h(t) = t^2 (log log(1/t))^beta, with beta the construction's
own exponent.  Perturbing the gauge exponent tips the sums to 0 or
infinity, which locates the generalized dimension of the image set;
power gauges do the same for the pre-image family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .construction import (
    LOG2,
    MIN_LEVEL,
    ConstructionParams,
    log_image_side,
)

_GAUGE_DOMAIN_EDGE = -1.0  # log t < -1 keeps log(1/t) > 1, so loglog(1/t) > 0


@dataclass(frozen=True)
class Gauge:
    """h(t) = t^n (log log(1/t))^beta on 0 < t < e^-1.

    n is the volume power (2 for planar sets), beta >= 0 the doubly
    logarithmic correction; beta = 0 degenerates to the power gauge
    t^n used for ordinary box and Hausdorff dimension checks.
    """

    n: int
    beta: float

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")


def gauge_log_eval(gauge: Gauge, log_t: float) -> float:
    """log h(t) at t = exp(log_t), for scales far below double range."""
    if not log_t < _GAUGE_DOMAIN_EDGE:
        raise ValueError(
            f"gauge defined for log t < {_GAUGE_DOMAIN_EDGE}, got log t = {log_t}"
        )
    if gauge.beta == 0.0:
        return gauge.n * log_t
    return gauge.n * log_t + gauge.beta * math.log(math.log(-log_t))


def natural_cover_sum(
    side: str,
    gauge_or_alpha: Union[Gauge, float],
    k: int,
    params: ConstructionParams,
) -> float:
    """Natural log of the canonical level-k covering sum.

    side "image": the 2^(2k) level-k image squares cover the planar
    image set.  side "pre": the 2^k level-k intervals of length
    sigma^k cover one axis factor of the pre-image set; the per-axis
    count is the relevant one for the axis dimension.  The gauge is a
    Gauge, or a bare float alpha meaning the power gauge t^alpha, and
    it reads the side of each cover.  Every level k >= 3 lies in a
    Gauge's domain log t < -1: both sides have log t < 3 log(1/2).
    """
    if side not in ("pre", "image"):
        raise ValueError(f"side must be 'pre' or 'image', got {side!r}")
    if k < MIN_LEVEL:
        raise ValueError(f"levels start at {MIN_LEVEL}, got {k}")
    if side == "pre":
        log_t = k * math.log(params.sigma)
        log_count = k * LOG2
    else:
        log_t = log_image_side(k, params)
        log_count = 2 * k * LOG2
    if isinstance(gauge_or_alpha, Gauge):
        return log_count + gauge_log_eval(gauge_or_alpha, log_t)
    alpha = float(gauge_or_alpha)
    if alpha <= 0.0:
        raise ValueError(f"power-gauge exponent must be positive, got {alpha}")
    return log_count + alpha * log_t


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
    trend a linear grid resolves nothing.
    """
    lvls = sorted(set(int(k) for k in levels))
    if len(lvls) < 2:
        raise ValueError("need at least two levels to read a trend")
    rows = []
    verdicts: dict = {}
    for bp in beta_primes:
        g = Gauge(2, float(bp))
        sums = [natural_cover_sum("image", g, k, params) for k in lvls]
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


@dataclass(frozen=True)
class MassDistributionReport:
    """Infimum of the stationary covering sums and the induced bound.

    Any measure spreading mass evenly over the image cells gives every
    small set U mass at most gauge(diam U) * 4 / m; equivalently the
    generalized measure of the image set is at least lower_bound = m/4.
    tail_limit records the analytic limit 1 of the sums for context.
    first_admissible_k is always MIN_LEVEL: the gauge needs log t < -1,
    and every level-k image side has log t = -k log 2 - (beta/2) loglog k
    < -3 log 2 < -2 for k >= 3 and beta > 0.
    """

    m: float
    at_k: int
    lower_bound: float
    first_admissible_k: int
    tail_limit: float


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
    is larger.  The float sums carry a rounding error of about
    k * 1e-16, far below that margin where the scan stops, so the
    result is that of a full scan to k_max (the tests compare the two).
    """
    if k_max < MIN_LEVEL:
        raise ValueError(f"k_max must be at least {MIN_LEVEL}, got {k_max}")

    def log_t_of(ks: np.ndarray) -> np.ndarray:
        return -ks * LOG2 - 0.5 * params.beta * np.log(np.log(ks))

    def lower_bound(k: int) -> float:
        return params.beta * math.log(math.log(k * LOG2) / math.log(k))

    best = math.inf
    best_k = MIN_LEVEL
    start, chunk = MIN_LEVEL, 64
    while start <= k_max and not lower_bound(start) > best:
        ks = np.arange(start, min(start + chunk, k_max + 1), dtype=np.float64)
        log_t = log_t_of(ks)
        ln_sum = 2.0 * ks * LOG2 + 2 * log_t + params.beta * np.log(np.log(-log_t))
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
    return MassDistributionReport(m, best_k, m / 4.0, MIN_LEVEL, 1.0)


def box_dimension_pre(k: int, params: ConstructionParams) -> float:
    """Box-counting slope of the planar pre-image family at level k:
    log(2^(2k)) / log(1 / sigma^k) = 2 log 2 / log(1/sigma).

    Constant in k (the covers are exactly self-similar), and below 2
    for every sigma < 1/2.  The k argument is kept so call sites can
    assert the independence.
    """
    if k < MIN_LEVEL:
        raise ValueError(f"levels start at {MIN_LEVEL}, got {k}")
    return 2.0 * LOG2 / math.log(1.0 / params.sigma)
