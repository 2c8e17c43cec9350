"""Frame integrals of the stretch map and the integrability threshold.

The derivative norm, Jacobian, and distortion are radial on each
frame, so their integrals reduce by the sup-norm coarea formula
(perimeter of {|x|_inf = rho} is 8 rho) to closed forms or 1-D
quadrature.  Grouping equal frames per level turns global integrals
into series; their consecutive-term ratios decide convergence, and
the sub-exponential series flips from convergent to divergent at an
explicit threshold exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Iterable, Optional

import numpy as np

from .construction import (
    LOG2,
    MIN_LEVEL,
    ConstructionParams,
    image_side,
    log_image_side,
    log_log_ratio,
    radii,
)
from .logspace import LOG_DOUBLE_MAX, log_add
from .mapping import coeffs, sup_distortion
from .quadrature import integrate


def _check_finite_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def subexp_gain(t: float, p: float) -> float:
    """Exponent p t / (1 + log t) of the sub-exponential gauge, t >= 1."""
    if t < 1.0:
        raise ValueError(f"sub-exponential gauge needs t >= 1, got {t}")
    return p * t / (1.0 + math.log(t))


def _linear_radii(k: int, params: ConstructionParams):
    rad = radii(k, params)
    if rad.r == 0.0 or rad.r_img == 0.0:
        raise ValueError(
            f"level {k} sides underflow double precision"
        )
    return rad


def _cross_term(k: int, params: ConstructionParams) -> tuple[float, float]:
    """8 (R r' - R' r) = s x of a level-k frame as (log s, x), free of the
    products' cancellation: past level 3, with u = (log(k-1)/log k)^(beta/2),
    s = sigma^(k-1) l_{k-1} and x = u/2 - sigma.  Level 3 reads its radii."""
    if k == MIN_LEVEL:
        rad = radii(k, params)
        return 0.0, 8.0 * (rad.R * rad.r_img - rad.R_img * rad.r)
    u = math.exp(-0.5 * params.beta * log_log_ratio(k))
    return (k - 1) * math.log(params.sigma) + log_image_side(k - 1, params), u / 2.0 - params.sigma


def frame_jacobian_integral(k: int, params: ConstructionParams) -> float:
    """Closed form of the Jacobian integral over one level-k frame.

    Coarea gives 8 integral of a t rho with t rho = r' + a (rho - r),
    which is 4 a^2 (R^2 - r^2) + 8 a (R r' - R' r) and telescopes to
    the image frame area 4 (R'^2 - r'^2) exactly.
    """
    rad, a = _linear_radii(k, params), coeffs(k, params)
    log_s, x = _cross_term(k, params)
    return 4.0 * a**2 * (rad.R**2 - rad.r**2) + a * math.exp(log_s) * x


def frame_tv_integral(k: int, params: ConstructionParams) -> float:
    """Closed form of the derivative-norm integral over one level-k frame.

    |Df| = max(a, t) with t rho = a rho + (R r' - R' r) / (R - r), so the
    integral is 4 a (R^2 - r^2) + 8 max(R r' - R' r, 0).
    """
    rad = _linear_radii(k, params)
    log_s, x = _cross_term(k, params)
    return 4.0 * coeffs(k, params) * (rad.R**2 - rad.r**2) + max(math.exp(log_s) * x, 0.0)


def frame_distortion_profile(k: int, params: ConstructionParams):
    """rho -> pointwise distortion on a level-k frame."""
    rad, a = radii(k, params), coeffs(k, params)

    def K(rho: float) -> float:
        t = (rad.r_img + a * (rho - rad.r)) / rho
        return max(t / a, a / t)

    return K


def frame_subexp_integral(k: int, p: float, params: ConstructionParams) -> float:
    """Adaptive quadrature of exp(p K / (1 + log K)) over one frame.

    K is the pointwise distortion; the integrand is radial, so coarea
    reduces to 1-D quadrature against 8 rho.  Raises if the integrand
    exceeds double range; series_terms covers those levels in log space.
    """
    _check_finite_positive("p", p)
    rad = _linear_radii(k, params)
    Kf = frame_distortion_profile(k, params)
    if subexp_gain(sup_distortion(k, params), p) > 700.0:
        raise ValueError(
            f"integrand overflows double range at level {k}; use series_terms"
        )
    return integrate(
        lambda rho: math.exp(subexp_gain(Kf(rho), p)) * 8.0 * rho, rad.r, rad.R
    )


def frame_integral_mc(
    k: int,
    params: ConstructionParams,
    kind: str,
    p: Optional[float] = None,
    n_samples: int = 10**6,
    seed: int = 0x5EED,
) -> float:
    """Uniform Monte-Carlo estimate of a frame integral.

    Samples uniformly on the sup-norm annulus and returns
    mean(integrand) times the frame area.  Every kind's integrand
    depends on a point only through its sup-norm radius, which for a
    uniform point is rho = sqrt(r^2 + U (R^2 - r^2)), so only rho is
    drawn.  Drawing a face and an offset fl((2V - 1) rho) along it too
    would give a point of sup-norm radius exactly rho, as
    |2V - 1| <= 1, and would not change the draws rho reads first: the
    estimate is the same double.  An oracle for the closed forms and
    quadrature that shares none of their algebra.
    """
    if kind not in ("jacobian", "tv", "subexp"):
        raise ValueError(f"kind must be jacobian, tv or subexp, got {kind!r}")
    if kind == "subexp":
        if p is None:
            raise ValueError("subexp integrals need p > 0")
        _check_finite_positive("p", p)
    rad = _linear_radii(k, params)
    a = coeffs(k, params)
    rng = np.random.default_rng(seed)
    rho = np.sqrt(rad.r**2 + rng.random(n_samples) * (rad.R**2 - rad.r**2))
    t = (rad.r_img + a * (rho - rad.r)) / rho
    if kind == "jacobian":
        vals = a * t
    elif kind == "tv":
        vals = np.maximum(a, t)
    else:
        K = np.maximum(t / a, a / t)
        vals = np.exp(p * K / (1.0 + np.log(K)))
    area = 4.0 * (rad.R**2 - rad.r**2)
    return float(vals.mean() * area)


def image_area_partition_defect(depth: int, params: ConstructionParams) -> float:
    """|1 - total image area| over frames of levels 3..depth plus the
    depth-level squares.  Zero up to rounding: the image frames and
    squares tile the unit square."""
    total = 0.0
    for k in range(MIN_LEVEL, depth + 1):
        rad = radii(k, params)
        total += 4.0 ** k * 4.0 * (rad.R_img**2 - rad.r_img**2)
    total += 4.0 ** depth * image_side(depth, params) ** 2
    return abs(1.0 - total)


def log_pre_gap(k: int, params: ConstructionParams) -> float:
    """log(R - r) = log(sigma^(k-1) (1 - 2 sigma) / 4), the width of a
    level-k pre-image frame, k >= 4."""
    return (k - 1) * math.log(params.sigma) + math.log((1.0 - 2.0 * params.sigma) / 4.0)


def _log_pre_span(k: int, params: ConstructionParams) -> float:
    # log(R + r), k >= 4
    return (k - 1) * math.log(params.sigma) + math.log((1.0 + 2.0 * params.sigma) / 4.0)


def _log_pre_area(k: int, params: ConstructionParams) -> float:
    # log of the frame area 4 (R^2 - r^2)
    if k == MIN_LEVEL:
        rad = radii(k, params)
        return math.log(4.0 * (rad.R**2 - rad.r**2))
    return math.log(4.0) + log_pre_gap(k, params) + _log_pre_span(k, params)


def _tv_log_per_frame(k: int, params: ConstructionParams) -> float:
    """log of frame_tv_integral, k >= 3, at levels far past double range.

    Past level 3, with u = (log(k-1)/log k)^(beta/2), R' - r' = l_{k-1} (1 - u) / 4,
    so 4 a (R^2 - r^2) = 4 (R' - r') (R + r) and, where positive,
    8 (R r' - R' r) (_cross_term) factor into logs.
    """
    if k == MIN_LEVEL:
        return math.log(frame_tv_integral(k, params))
    half_beta_llr = 0.5 * params.beta * log_log_ratio(k)
    log_lk1 = log_image_side(k - 1, params)
    first = log_lk1 + math.log(-math.expm1(-half_beta_llr)) + _log_pre_span(k, params)
    log_s, x = _cross_term(k, params)
    if x > 0.0:
        return log_add(first, log_s + math.log(x))
    return first


@dataclass(frozen=True)
class SeriesTerm:
    """One grouped series term: all 2^(2(k-1)) frames of a level."""

    level: int
    count_log2: int
    log_per_frame: float
    log_term: float


@dataclass(frozen=True)
class SeriesDiagnostics:
    kind: str
    p: Optional[float]
    margin: float
    limit_ratio: float
    verdict: str
    terms: tuple[SeriesTerm, ...]
    ratios: tuple[float, ...]


def _series_log_per_frame(kind: str, k: int, p: Optional[float], params) -> tuple[float, float]:
    """The level-k log per frame and the magnitude M of the logs summed
    into it.  A subexp term is the frame area times the gauge at the
    frame sup of the distortion; its area and gain logs have opposite
    signs, so M is |log area| + gain.  The tv logs share one sign."""
    if kind == "tv":
        pf = _tv_log_per_frame(k, params)
        return pf, abs(pf)
    log_area = _log_pre_area(k, params)
    gain = subexp_gain(sup_distortion(k, params), p)
    return log_area + gain, abs(log_area) + gain


# Largest relative rounding error a printed series ratio may carry.
SERIES_RATIO_RTOL = 1e-6

# A term ratio is exp(2 log 2 + pf(k+1) - pf(k)), and each log per frame
# pf sums logs whose magnitudes add up to M (_series_log_per_frame).  To
# first order, with each rounding within u = 2^-53 of its result and each
# log, log1p and expm1 within one ulp = 2u, the error of a subexp pf is
# at most 3.5 u |log area| (one product, four sums) plus 15 u gain (8 u
# from T_k's log, two log1p and expm1, seven roundings on the way to K
# and the gain; alpha's rounding is the same at both levels) plus u M for
# their sum, so at most 16 u M; a tv pf, whose logs share one sign, is
# within 6 u M (4 u in each log_add argument, 2 u in log_add).  Forming
# log_ratio adds u M, and exp's own rounding, u relative, is absorbed as
# M > 1: the ratio is within 17 u (M(k) + M(k+1)) relative.
_RATIO_ROUNDINGS = 17


def series_terms(
    kind: str,
    levels: Iterable[int],
    params: ConstructionParams,
    p: Optional[float] = None,
    margin: float = 1e-3,
) -> SeriesDiagnostics:
    """Grouped series terms in log space with ratio diagnostics.

    kind "tv" sums the derivative-norm integrals; consecutive-term
    ratios tend to 2 sigma, so the series always converges.  kind
    "subexp" sums frame area times exp(p K / (1 + log K)) at the frame
    sup K of the distortion; ratios tend to
    (2 sigma)^2 exp(2 p (1 - 2 sigma) / (2 sigma beta)), which crosses
    1 exactly at p = p_threshold(params).

    The verdict applies the ratio test to the limiting ratio with the
    given margin ("convergent", "divergent", or "inconclusive" inside
    the margin band).  Finite-level ratios are reported per requested
    level for trend inspection; near the threshold they approach the
    limit only at loglog(k)/log(k) speed, so any verdict read off a
    finite tail would point the wrong way on one side.

    Each term stores its count exponent (count = 2^(2(k-1)), the
    frames of level k grouped under their level-(k-1) parents) and the
    per-frame log integral; log_term is their log-space product.

    Raises ValueError at the first level whose ratio is past double
    range, or whose rounding bound exceeds SERIES_RATIO_RTOL: the logs
    it is formed from grow like k, and so does their rounding.
    """
    if kind not in ("tv", "subexp"):
        raise ValueError(f"kind must be 'tv' or 'subexp', got {kind!r}")
    if kind == "subexp":
        if p is None:
            raise ValueError("subexp series needs p > 0")
        _check_finite_positive("p", p)
    else:
        p = None
    _check_finite_positive("margin", margin)
    lvls = sorted(set(int(k) for k in levels))
    if not lvls:
        raise ValueError("need at least one level")
    if lvls[0] < MIN_LEVEL:
        raise ValueError(f"levels start at {MIN_LEVEL}, got {lvls[0]}")

    terms = []
    ratios = []
    for k in lvls:
        pf, mag = _series_log_per_frame(kind, k, p, params)
        if not math.isfinite(pf):
            raise ValueError(f"level-{k} log term is past double range (log per frame {pf!r})")
        count_log2 = 2 * (k - 1)
        terms.append(SeriesTerm(k, count_log2, pf, count_log2 * LOG2 + pf))
        pf_next, mag_next = _series_log_per_frame(kind, k + 1, p, params)
        log_ratio = 2.0 * LOG2 + pf_next - pf
        # the two per-level logs are of size ~k, so log_ratio carries an
        # absolute error near k * 2^-53: past range here says nothing of
        # whether the exact ratio is
        if not log_ratio < LOG_DOUBLE_MAX:
            raise ValueError(
                f"level-{k} term ratio exp({log_ratio!r}), formed from the difference of"
                " two per-level logs, is past double range"
            )
        bound = _RATIO_ROUNDINGS * 2.0**-53 * (mag + mag_next)
        if bound > SERIES_RATIO_RTOL:
            raise ValueError(
                f"level-{k} term ratio is formed from logs of size {mag + mag_next:.3g}, so"
                f" its rounding bound {bound:.3g} exceeds the relative {SERIES_RATIO_RTOL:g}"
                " a printed ratio must meet; use smaller levels"
            )
        ratios.append(math.exp(log_ratio))

    two_sigma = 2.0 * params.sigma
    if kind == "tv":
        limit = two_sigma
    else:
        limit = two_sigma**2 * gain_ratio_limit(p, params)
    if limit < 1.0 - margin:
        verdict = "convergent"
    elif limit > 1.0 + margin:
        verdict = "divergent"
    else:
        verdict = "inconclusive"
    return SeriesDiagnostics(
        kind, p, margin, limit, verdict, tuple(terms), tuple(ratios)
    )


# Largest level gain_ratio accepts.  The working precision grows with
# the digits of k, and agreement with a fixed 300-digit evaluation is
# tested up to here.
GAIN_RATIO_MAX_LEVEL = 10**100


def gain_ratio(k: int, p: float, params: ConstructionParams) -> float:
    """Ratio of consecutive gauge factors exp(p K / (1 + log K)) at the
    closed-form distortion bound K = alpha / T_k, k >= 4.

    Tends to gain_ratio_limit(p, params) as k grows, but only at
    loglog(k)/log(k) speed: the relative deviation is to leading order
    (2 p alpha / beta) (1 + loglog k + log(2 alpha / beta)) / log k,
    still 0.27 at k = 10^9 for p alpha / beta = 1.

    Both gauge exponents are of size k and their difference is of size
    one, so they are formed in decimal arithmetic with about twice the
    digits of k to spare; the result is accurate to double precision
    for 4 <= k <= GAIN_RATIO_MAX_LEVEL and raises ValueError outside.
    """
    _check_finite_positive("p", p)
    k = int(k)
    if not MIN_LEVEL + 1 <= k <= GAIN_RATIO_MAX_LEVEL:
        raise ValueError(
            f"gain_ratio needs {MIN_LEVEL + 1} <= k <= 1e100, got {Decimal(k):.3g}"
        )
    with localcontext() as ctx:
        # T_k ~ 1 / (k log k) comes out of log k - log(k-1), and the two
        # exponents cancel to one: each costs about the digits of k
        ctx.prec = 2 * len(str(k)) + 40
        gap = _bound_gain(k + 1, p, params) - _bound_gain(k, p, params)
        ratio = float(gap.exp())
    if math.isinf(ratio):
        raise ValueError(f"gain ratio overflows double precision at p={p}")
    return ratio


def _bound_gain(k: int, p: float, params: ConstructionParams) -> Decimal:
    """p K / (1 + log K) at K = alpha / T_k, in the current decimal context."""
    two_sigma = 2 * Decimal(params.sigma)
    alpha = (1 - two_sigma) / two_sigma
    T = (Decimal(k).ln() / Decimal(k - 1).ln()) ** (Decimal(params.beta) / 2) - 1
    K = alpha / T
    if K < 1:
        raise ValueError(
            f"distortion bound {float(K):.3g} below 1 at level {k}; "
            "the asymptotic form starts deeper"
        )
    return Decimal(p) * K / (1 + K.ln())


def gain_ratio_limit(p: float, params: ConstructionParams) -> float:
    """exp(2 p (1 - 2 sigma) / (2 sigma beta)), the large-k limit of
    gain_ratio."""
    _check_finite_positive("p", p)
    sigma = params.sigma
    alpha = (1.0 - 2.0 * sigma) / (2.0 * sigma)
    exponent = 2.0 * p * alpha / params.beta
    try:
        return math.exp(exponent)
    except OverflowError:
        raise ValueError(
            f"gain ratio limit exp(2 p alpha / beta) = exp({exponent!r}) overflows double precision"
        ) from None


def p_threshold(params: ConstructionParams) -> float:
    """The exponent where the sub-exponential series flips.

    p0 = beta (2 sigma / (1 - 2 sigma)) log(1 / (2 sigma)): below it
    the grouped series converges, above it the terms eventually grow.
    At p0 the limiting ratio is exactly 1.
    """
    sigma = params.sigma
    return params.beta * (2.0 * sigma / (1.0 - 2.0 * sigma)) * math.log(1.0 / (2.0 * sigma))
