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
    image_side,
    log_image_side,
    log_log_ratio,
    radii,
)
from .logspace import LOG_DOUBLE_MAX
from .mapping import coeffs, distortion_bound_T, sup_distortion


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


def _tv_h(k: int, params: ConstructionParams) -> float:
    """h of the level-k tv integral s h, k > 3, s = sigma^(k-1) l_{k-1}:
    4 a (R^2 - r^2) = s (1 - u)(1 + 2 sigma)/4 and 8 (R r' - R' r) = s x, with
    u = (log(k-1)/log k)^(beta/2) and x = u/2 - sigma, taken as
    ((1 - 2 sigma) - (1 - u)) / 2 lest u's rounding near 1 cost x its digits."""
    one_minus_u = -math.expm1(-0.5 * params.beta * log_log_ratio(k))
    x = ((1.0 - 2.0 * params.sigma) - one_minus_u) / 2.0
    return one_minus_u * (1.0 + 2.0 * params.sigma) / 4.0 + max(x, 0.0)


def frame_jacobian_integral(k: int, params: ConstructionParams) -> float:
    """Closed form of the Jacobian integral over one level-k frame.

    Coarea gives 8 integral of a t rho with t rho = r' + a (rho - r),
    which is 4 a (R - r) (R' + r'), every factor positive, and telescopes
    to the image frame area 4 (R'^2 - r'^2) exactly.
    """
    rad, a = _linear_radii(k, params), coeffs(k, params)
    return 4.0 * a * (rad.R - rad.r) * (rad.R_img + rad.r_img)


def frame_tv_integral(k: int, params: ConstructionParams) -> float:
    """Closed form of the derivative-norm integral over one level-k frame.

    |Df| = max(a, t) with t rho = a rho + (R r' - R' r) / (R - r), so the
    integral is 4 a (R^2 - r^2) + 8 max(R r' - R' r, 0).  Past level 3
    that is s h (_tv_h), formed from factors of size one.  Level 3 reads
    its radii, and its R - r cancels as sigma nears 1/2: there
    R = 1/16 = r / (2 sigma)^3, which the radii carry with their rounding.
    """
    rad = _linear_radii(k, params)
    if k == MIN_LEVEL:
        return 4.0 * coeffs(k, params) * (rad.R**2 - rad.r**2) + max(
            8.0 * (rad.R * rad.r_img - rad.R_img * rad.r), 0.0)
    return params.sigma ** (k - 1) * image_side(k - 1, params) * _tv_h(k, params)


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

    With w = rho / r - 1 in [0, W], W = R / r - 1 (alpha past level 3),
    K = max(q, 1 / q) with q = (w + kappa) / (1 + w), kappa = t(r) / a
    (alpha / T_k past level 3, as in sup_distortion), and coarea gives
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
    K0 = sup_distortion(k, params)
    if k == MIN_LEVEL:
        rad = _linear_radii(k, params)
        kappa = rad.r_img / (coeffs(k, params) * rad.r)
        W, log_r = rad.R / rad.r - 1.0, math.log(rad.r)
    else:
        W = (1.0 - 2.0 * params.sigma) / (2.0 * params.sigma)
        kappa = W / distortion_bound_T(k, params.beta)
        log_r = k * math.log(params.sigma) - LOG2
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


def _log_pre_area(k: int, params: ConstructionParams) -> float:
    # log of the frame area 4 (R - r)(R + r), R -+ r = sigma^(k-1) (1 -+ 2 sigma) / 4 past level 3
    if k == MIN_LEVEL:
        rad = radii(k, params)
        return math.log(4.0 * (rad.R**2 - rad.r**2))
    log_s, sigma = (k - 1) * math.log(params.sigma), params.sigma
    return math.log(4.0) + (log_s + math.log((1.0 - 2.0 * sigma) / 4.0)) + (
        log_s + math.log((1.0 + 2.0 * sigma) / 4.0))


def _tv_log_per_frame(k: int, params: ConstructionParams) -> float:
    """log of frame_tv_integral, k >= 3, at levels far past double range:
    past level 3, log s + log h (_tv_h)."""
    if k == MIN_LEVEL:
        return math.log(frame_tv_integral(k, params))
    log_s = (k - 1) * math.log(params.sigma) + log_image_side(k - 1, params)
    return log_s + math.log(_tv_h(k, params))


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


def _term_ratio(kind: str, k: int, p: Optional[float], params, pf: float) -> float:
    """The level-k term ratio, 4 times the level-(k+1) integral per frame
    over the level-k one (whose log is pf).  Past level 3 it is formed
    from factors of size one in decimal and rounded once: tv's is
    2 sigma u_k h(k+1) / h(k) (_tv_h), and subexp's, wherever
    T_k < alpha, (2 sigma)^2 gain_ratio, as consecutive frame areas are
    in the ratio sigma^2.  Level 3 and the pre-asymptotic subexp levels
    (small k unless sigma nears 1/2 or beta is large) take
    exp(2 log 2 + pf(k+1) - pf(k))."""
    if k > MIN_LEVEL and kind == "tv":
        with localcontext() as ctx:
            ctx.prec = _kernel_digits(k, params.beta)
            sigma = Decimal(params.sigma)
            u = [_decimal_u(n, params.beta) for n in (k, k + 1)]
            h = [(1 - v) * (1 + 2 * sigma) / 4 + max(v / 2 - sigma, Decimal(0)) for v in u]
            return float(2 * sigma * u[0] * h[1] / h[0])
    if k > MIN_LEVEL and _asymptotic(k, params):
        if k > GAIN_RATIO_MAX_LEVEL:
            raise ValueError(f"level-{k} term ratio is past 1e100, the deepest gain_ratio level")
        with localcontext() as ctx:
            ctx.prec = _kernel_digits(k, params.beta)
            log_ratio = 2 * (2 * Decimal(params.sigma)).ln() + _log_gain_ratio(k, p, params)
            if log_ratio < LOG_DOUBLE_MAX:
                return float(log_ratio.exp())
    else:
        # the two per-level logs are of size ~k, so log_ratio carries an absolute
        # error near k * 2^-53: past range here says nothing of whether the exact ratio is
        log_ratio = 2.0 * LOG2 + _series_log_per_frame(kind, k + 1, p, params) - pf
        if log_ratio < LOG_DOUBLE_MAX:
            return math.exp(log_ratio)
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
        count_log2 = 2 * (k - 1)
        # the count's exponent leaves double range (k past 9e307) before the log term does
        if not (math.isfinite(pf) and count_log2 <= sys.float_info.max):
            raise ValueError(f"level-{k} log term is past double range (log per frame {pf!r})")
        terms.append(SeriesTerm(k, count_log2, pf, count_log2 * LOG2 + pf))
        ratios.append(_term_ratio(kind, k, p, params, pf))

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
    gap = _log_gain_ratio(k, p, params)
    if not gap < LOG_DOUBLE_MAX:
        raise ValueError(f"gain ratio overflows double precision at p={p}")
    with localcontext() as ctx:
        ctx.prec = _kernel_digits(k, params.beta)
        return float(gap.exp())


def _asymptotic(k: int, params: ConstructionParams) -> bool:
    """T_k < alpha at level k >= 4, as log(1 + T_k) < log(1 + alpha) = -log(2 sigma),
    which cannot overflow: the one test gain_ratio and series_terms branch on."""
    return 0.5 * params.beta * log_log_ratio(k) < -math.log(2.0 * params.sigma)


def _log_gain_ratio(k: int, p: float, params: ConstructionParams) -> Decimal:
    """G(k+1) - G(k), the log of gain_ratio, with G = p K / (1 + log K)."""
    _check_finite_positive("p", p)
    k = int(k)
    if not MIN_LEVEL + 1 <= k <= GAIN_RATIO_MAX_LEVEL:
        raise ValueError(
            f"gain_ratio needs {MIN_LEVEL + 1} <= k <= 1e100, got {Decimal(k):.3g}"
        )
    if not _asymptotic(k, params):
        raise ValueError(
            f"distortion bound alpha / T_k below 1 at level {k}; "
            "the asymptotic form starts deeper"
        )
    with localcontext() as ctx:
        ctx.prec = _kernel_digits(k, params.beta)
        return _bound_gain(k + 1, p, params) - _bound_gain(k, p, params)


def _kernel_digits(k: int, beta: float) -> int:
    # 1 - u_k ~ beta / (2 k log k) comes out of log k - log(k-1) and a
    # power, and two gauge exponents of size k cancel to one: each costs
    # the digits of k, and the power those of 1 / beta too
    return 2 * len(str(k)) + 40 + max(0, -Decimal(beta).adjusted())


def _decimal_u(k: int, beta: float) -> Decimal:
    """u_k = (log(k-1) / log k)^(beta/2) = 2 l_k / l_{k-1} = 1 / (1 + T_k), k >= 4."""
    return (Decimal(k - 1).ln() / Decimal(k).ln()) ** (Decimal(beta) / 2)


def _bound_gain(k: int, p: float, params: ConstructionParams) -> Decimal:
    """p K / (1 + log K) at K = alpha / T_k, in the current decimal context."""
    two_sigma, u = 2 * Decimal(params.sigma), _decimal_u(k, params.beta)
    K = (1 - two_sigma) / two_sigma * u / (1 - u)
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
