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
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Iterable, Optional

import numpy as np

from .construction import (
    LOG2,
    MIN_LEVEL,
    ConstructionParams,
    FrameShape,
    frame_shape,
    radii,
)
from .mapping import coeffs, sup_distortion

# exp(x) is a finite double for every x below this, the log of the largest
LOG_DOUBLE_MAX = math.log(sys.float_info.max)


def _check_finite_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def subexp_gain(t: float, p: float) -> float:
    """Exponent p t / (1 + log t) of the sub-exponential gauge, t >= 1."""
    if t < 1.0:
        raise ValueError(f"sub-exponential gauge needs t >= 1, got {t}")
    return p * t / (1.0 + math.log(t))


def _tv_h(shape: FrameShape) -> float:
    """h of the tv frame integral P P' h (frame_shape): with R = P / 4,
    r = rho R, R' = P' / 4 and r' = u R', 4 a (R^2 - r^2) = P P' (1 - u)(1 + rho)/4
    and 8 (R r' - R' r) = P P' x, x = u/2 - rho/2, taken as
    ((1 - rho) - (1 - u)) / 2 lest u's rounding near 1 cost x its digits."""
    one_minus_u = -math.expm1(-shape.h)
    x = (shape.one_minus_rho - one_minus_u) / 2.0
    return one_minus_u * (1.0 + shape.rho) / 4.0 + max(x, 0.0)


def frame_jacobian_integral(k: int, params: ConstructionParams) -> float:
    """Closed form of the Jacobian integral over one level-k frame.

    Coarea gives 8 integral of a t rho with t rho = r' + a (rho - r),
    which is 4 a (R - r) (R' + r'), every factor positive, and telescopes
    to the image frame area 4 (R'^2 - r'^2) exactly.
    """
    rad, a = radii(k, params), coeffs(k, params)
    return 4.0 * a * (rad.R - rad.r) * (rad.R_img + rad.r_img)


def frame_tv_integral(k: int, params: ConstructionParams) -> float:
    """Closed form of the derivative-norm integral over one level-k frame.

    |Df| = max(a, t) with t rho = a rho + (R r' - R' r) / (R - r), so the
    integral is 4 a (R^2 - r^2) + 8 max(R r' - R' r, 0), which is
    P P' h = 16 R R' h (_tv_h), formed from factors of size one at every
    level.
    """
    coeffs(k, params)  # refuses a frame that is degenerate in doubles
    rad = radii(k, params)
    return 16.0 * rad.R * rad.R_img * _tv_h(frame_shape(k, params))


def frame_subexp_integral(k: int, p: float, params: ConstructionParams) -> float:
    """Integral of exp(p K / (1 + log K)) over one level-k frame, K the
    pointwise distortion: exp of _log_subexp_integral.  Raises ValueError
    where the value is past double range."""
    log_value = _log_subexp_integral(k, p, params)
    value = math.exp(log_value) if log_value < LOG_DOUBLE_MAX else math.inf
    if not 0.0 < value < math.inf:
        raise ValueError(f"level-{k} frame integral exp({log_value!r}) is past double range")
    return value


def _log_subexp_integral(k: int, p: float, params: ConstructionParams) -> float:
    """log of the integral of exp(G(K)), G(K) = p K / (1 + log K), over a
    level-k frame, usable far past double range.

    With w = rho / r - 1 in [0, W], W = R / r - 1 = alpha,
    K = max(q, 1 / q) with q = (w + kappa) / (1 + w), kappa = t(r) / a
    = alpha / T (as in sup_distortion), and coarea gives
    8 r^2 times the integral of exp(G(K)) (1 + w) dw.  K falls from K0 at
    w = 0, so panels halve toward 0 down to the decay scale 1 / |G'(0)|,
    or to the nearest pole of K (at -kappa where kappa < 1, else -1)
    where that is closer.  16 Gauss-Legendre nodes per panel, summed in
    log space, give the value; where the 32-node rule differs by more
    than 1e-9 relative, ValueError.  The nodes read G(K) - G(K0), which
    rounds to its own size however large G(K0) is: with
    l = log(K / K0) = +-log1p(e), e = (w / (1 + w)) (1 - kappa) / kappa
    (+ where kappa >= 1), it is G(K0) (expm1(l) (1 + L0) - l) / (1 + L0 + l),
    L0 = log K0; kappa is never summed with 1 before a division.
    """
    _check_finite_positive("p", p)
    K0, shape = sup_distortion(k, params), frame_shape(k, params)
    W = shape.alpha
    kappa, log_r = W / shape.T, shape.log_P + math.log(shape.rho / 4.0)
    G0 = subexp_gain(K0, p)
    if not G0 < math.inf:
        raise ValueError(f"level-{k} gauge exponent at the sup is past double range")
    # |G'(0)| = p L0 / (1 + L0)^2 |K'(0)|, |K'(0)| = K0 - 1, times K0 where kappa < 1
    L0, log_floor = math.log(K0), math.log(min(kappa, 1.0))
    if K0 > 1.0:
        log_slope = math.log(p) + math.log(L0) - 2.0 * math.log1p(L0) + math.log(K0 - 1.0)
        log_floor = min(log_floor, -log_slope - (L0 if kappa < 1.0 else 0.0))
    if log_floor < math.log(sys.float_info.min):
        raise ValueError(f"level-{k} frame integral: decay scale exp({log_floor:.6g}) underflows")
    panels = max(1, math.ceil((math.log(W) - log_floor) / LOG2))
    edges = np.append(np.ldexp(W, -np.arange(panels)), 0.0)
    log_sum, log_check = (_log_panel_sum(edges, n, kappa, L0, G0) for n in (16, 32))
    gap = abs(math.expm1(log_sum - log_check))
    if not gap <= 1e-9:
        raise ValueError(f"level-{k} frame integral: 16- and 32-node rules differ by {gap:.3e}")
    return math.log(8.0) + 2.0 * log_r + G0 + log_sum


def _log_panel_sum(edges: np.ndarray, n: int, kappa: float, L0: float, G0: float) -> float:
    """log of the n-node Gauss-Legendre sum of exp(G(K) - G(K0)) (1 + w)
    over the panels between consecutive edges (_log_subexp_integral)."""
    from numpy.polynomial.legendre import leggauss

    x, weights = leggauss(n)
    half = 0.5 * (edges[:-1] - edges[1:])
    w = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * x
    e = w / (1.0 + w) * ((1.0 - kappa) / kappa)
    if kappa < 1.0:
        l = -np.log1p(e)
    else:  # where e nears -1, log((1 + w / kappa) / (1 + w)) = log1p(e) keeps its digits
        l = np.where(e > -0.5, np.log1p(np.maximum(e, -0.5)), np.log((1.0 + w / kappa) / (1.0 + w)))
    terms = G0 * (np.expm1(l) * (1.0 + L0) - l) / (1.0 + L0 + l)
    terms += np.log1p(w) + np.log(half)[:, None] + np.log(weights)
    top = terms.max()
    return float(top + math.log(np.exp(terms - top).sum()))


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
    rad, a = radii(k, params), coeffs(k, params)
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


def _log_pre_area(k: int, params: ConstructionParams) -> float:
    # log of the frame area 4 (R - r)(R + r), R -+ r = P (1 -+ rho) / 4
    shape = frame_shape(k, params)
    return math.log(4.0) + (shape.log_P + math.log(shape.one_minus_rho / 4.0)) + (
        shape.log_P + math.log((1.0 + shape.rho) / 4.0))


def _tv_log_per_frame(k: int, params: ConstructionParams) -> float:
    """log of frame_tv_integral, log P + log P' + log h (_tv_h), at levels
    far past double range."""
    shape = frame_shape(k, params)
    return shape.log_P + shape.log_P_img + math.log(_tv_h(shape))


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


def _series_log_per_frame(kind: str, k: int, p: Optional[float], params) -> float:
    """The level-k log per frame; subexp's is the frame area times the gauge at the sup."""
    if kind == "tv":
        return _tv_log_per_frame(k, params)
    return _log_pre_area(k, params) + subexp_gain(sup_distortion(k, params), p)


def _term_ratio(kind: str, k: int, p: Optional[float], params) -> float:
    """The level-k term ratio, 4 times the level-(k+1) integral per frame
    over the level-k one, formed from factors of size one in decimal and
    rounded once.  As R_{k+1} = r_k / 2 and R'_{k+1} = r'_k / 2
    (frame_shape), tv's is rho u h(k+1) / h(k) (_tv_h), and subexp's is
    rho^2 (1 - rho_{k+1}^2) / (1 - rho^2) exp(G(K_{k+1}) - G(K_k)), the area
    ratio times the gain ratio at the sups."""
    if kind == "subexp" and k > GAIN_RATIO_MAX_LEVEL:
        raise ValueError(f"level-{k} term ratio is past 1e100, the deepest gain_ratio level")
    with localcontext() as ctx:
        ctx.prec = _kernel_digits(k, params.beta)
        (rho, u), (rho_next, u_next) = (_decimal_shape(n, params) for n in (k, k + 1))
        if kind == "tv":
            return float(rho * u * _decimal_tv_h(rho_next, u_next) / _decimal_tv_h(rho, u))
        log_ratio = (rho**2 * (1 - rho_next**2) / (1 - rho**2)).ln() + (
            _bound_gain(p, rho_next, u_next) - _bound_gain(p, rho, u))
        if log_ratio < LOG_DOUBLE_MAX:
            return float(log_ratio.exp())
    raise ValueError(f"level-{k} term ratio exp({float(log_ratio)!r}) is past double range")


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

    Raises ValueError at the first level whose log term or ratio
    (_term_ratio) is past double range, and where the limit is.
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
        pf = _series_log_per_frame(kind, k, p, params)
        # doubling LOG2 is exact, so this is 2 (k - 1) LOG2 + pf wherever 2 (k - 1) is a double
        log_term = (k - 1) * (2.0 * LOG2) + pf
        if not math.isfinite(log_term):
            raise ValueError(f"level-{k} log term is past double range (log per frame {pf!r})")
        terms.append(SeriesTerm(k, 2 * (k - 1), pf, log_term))
        ratios.append(_term_ratio(kind, k, p, params))

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
    one, so they are formed in decimal; the result is accurate to double
    precision for 4 <= k <= GAIN_RATIO_MAX_LEVEL where T_k < alpha.
    """
    _check_finite_positive("p", p)
    k = int(k)
    if not MIN_LEVEL + 1 <= k <= GAIN_RATIO_MAX_LEVEL:
        raise ValueError(
            f"gain_ratio needs {MIN_LEVEL + 1} <= k <= 1e100, got {Decimal(k):.3g}"
        )
    shape = frame_shape(k, params)
    # T_k < alpha, as h = log(1 + T_k) < log(1 + alpha) = -log(rho), which cannot overflow
    if not shape.h < -math.log(shape.rho):
        raise ValueError(
            f"distortion bound alpha / T_k below 1 at level {k}; "
            "the asymptotic form starts deeper"
        )
    with localcontext() as ctx:
        ctx.prec = _kernel_digits(k, params.beta)
        gap = _bound_gain(p, *_decimal_shape(k + 1, params)) - _bound_gain(
            p, *_decimal_shape(k, params))
        if not gap < LOG_DOUBLE_MAX:
            raise ValueError(f"gain ratio overflows double precision at p={p}")
        return float(gap.exp())


def _kernel_digits(k: int, beta: float) -> int:
    # 1 - u_k ~ beta / (2 k log k) comes out of log k - log(k-1) and a
    # power, and two gauge exponents of size k cancel to one: each costs
    # the digits of k, and the power those of 1 / beta too
    return 2 * len(str(k)) + 40 + max(0, -Decimal(beta).adjusted())


def _decimal_shape(k: int, params: ConstructionParams) -> tuple[Decimal, Decimal]:
    """(rho, u) of frame_shape(k, params) in the current decimal context:
    u = exp(-h) = 1 / (1 + T_k) is (log(k-1) / log k)^(beta/2) = 2 l_k / l_{k-1},
    and (log 3)^(-beta/2) = 8 l_3 at level 3."""
    sigma, half_beta = Decimal(params.sigma), Decimal(params.beta) / 2
    if k == MIN_LEVEL:
        return 8 * sigma**3, Decimal(3).ln() ** -half_beta
    return 2 * sigma, (Decimal(k - 1).ln() / Decimal(k).ln()) ** half_beta


def _decimal_tv_h(rho: Decimal, u: Decimal) -> Decimal:
    """_tv_h in the current decimal context."""
    return (1 - u) * (1 + rho) / 4 + max(u / 2 - rho / 2, Decimal(0))


def _bound_gain(p: float, rho: Decimal, u: Decimal) -> Decimal:
    """p K / (1 + log K) at the sup K = max(kappa, 1 / kappa) of the frame
    of decimal shape (rho, u), kappa = alpha / T_k = alpha u / (1 - u)
    (sup_distortion), in the current decimal context."""
    kappa = (1 - rho) / rho * u / (1 - u)
    K = max(kappa, 1 / kappa)
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
