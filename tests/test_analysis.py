import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gain_oracle import (
    _context, _radii, exact_gain_ratio, exact_subexp_ratio, exact_tv_integral,
    exact_tv_log_term, exact_tv_ratio,
)
from frame_oracle import exact_least_frame_jacobian
from log_oracle import log_sum

from cantormap.analysis import (
    GAIN_RATIO_MAX_LEVEL,
    frame_integral_mc,
    frame_jacobian_integral,
    frame_subexp_integral,
    frame_tv_integral,
    gain_ratio_limit,
    gain_ratio,
    p_threshold,
    series_terms,
    subexp_gain,
    _log_subexp_integral,
    _series_log_per_frame,
)
from cantormap.construction import (
    LOG2, ConstructionParams, frame_shape, image_side, preimage_side, radii, resolvable_depth,
)
from cantormap.mapping import coeffs, fields_batch, sup_distortion

P = ConstructionParams(0.45, 2.0)


def test_subexp_gauge_anchors():
    assert subexp_gain(1.0, 2.0) == 2.0
    with pytest.raises(ValueError):
        subexp_gain(0.99, 1.0)


def test_log_sum():
    vals = [-2.0, -1.0, -3.0, -0.5]
    np.testing.assert_allclose(
        log_sum(vals), math.log(sum(math.exp(v) for v in vals)), rtol=1e-14
    )
    # far below double range: shifting by the max keeps the sum finite
    shifted = [v - 1e8 for v in vals]
    np.testing.assert_allclose(log_sum(shifted), log_sum(vals) - 1e8, rtol=1e-12)
    with pytest.raises(ValueError):
        log_sum([])


def test_jacobian_integral_equals_image_frame_area():
    """The Jacobian integral over a frame is exactly the image frame area."""
    for k in range(3, 13):
        rad = radii(k, P)
        area_img = 4.0 * (rad.R_img**2 - rad.r_img**2)
        np.testing.assert_allclose(frame_jacobian_integral(k, P), area_img, rtol=1e-12)


@settings(max_examples=300)
@given(
    sigma=st.floats(0.01, 0.5, exclude_max=True),
    beta=st.floats(-2.0, 3.0).map(lambda e: 10.0**e),
    k=st.integers(3, 20),
)
# 4 a^2 (R^2 - r^2) + 8 a (R r' - R' r) cancels about 7 : -6 here
@example(sigma=0.49, beta=2.0, k=5)
@example(sigma=0.49, beta=2.0, k=6)
def test_jacobian_integral_is_the_exact_image_frame_area(sigma, beta, k):
    """The closed form lies within 2 ulp of the image frame area
    4 (R'^2 - r'^2), taken exactly from the same double radii; an ulp
    is 2^-52 of the area, and 2^-1074 where the area is subnormal.  It
    is refused only where coeffs refuses the frame: where its least
    Jacobian, exact from the double radii, is below 2^-1022 (up to the
    rounding of coeffs' own test)."""
    params = ConstructionParams(sigma, beta)
    least = exact_least_frame_jacobian(k, params)
    if least < Fraction(2**-1022) * (1 + Fraction(1, 2**48)):
        try:
            frame_jacobian_integral(k, params)
        except ValueError as err:
            assert str(err).startswith(f"level-{k} frame is degenerate")
            return
        assert least > Fraction(2**-1022) * (1 - Fraction(1, 2**48))
    rad = radii(k, params)
    exact = 4 * (Fraction(rad.R_img) ** 2 - Fraction(rad.r_img) ** 2)
    ulp = max(exact / 2**52, Fraction(1, 2**1074))
    assert abs(Fraction(frame_jacobian_integral(k, params)) - exact) <= 2 * ulp


def test_jacobian_integral_vs_monte_carlo():
    mc = frame_integral_mc(4, P, "jacobian", n_samples=10**6)
    np.testing.assert_allclose(mc, frame_jacobian_integral(4, P), rtol=5e-3)


def test_tv_integral_vs_quadrature():
    """The closed form matches a 16-node Gauss-Legendre rule over [r, R]
    for the coarea integrand 8 max(a rho, r' + a (rho - r)), which is
    linear in rho, so the rule is exact up to rounding."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    for k in (3, 4, 7):
        a = coeffs(k, P)
        rad = radii(k, P)
        half = 0.5 * (rad.R - rad.r)
        rho = rad.r + half * (nodes + 1.0)
        integrand = 8.0 * np.maximum(a * rho, rad.r_img + a * (rho - rad.r))
        np.testing.assert_allclose(frame_tv_integral(k, P), half * (weights @ integrand), rtol=1e-9)


def test_tv_integral_drops_negative_b_term():
    # R r' < R' r at level 4 for these parameters, so t <= a and |Df| = a
    # on the frame: the integral is 4 a (R^2 - r^2), to 8 ulp as in
    # test_tv_integral_matches_its_oracle, while the b term would move it
    # by about 2.6e15 ulp
    rad = radii(4, P)
    assert Fraction(rad.R) * Fraction(rad.r_img) < Fraction(rad.R_img) * Fraction(rad.r)
    with localcontext() as ctx:
        _context(ctx)
        r, R, r_img, R_img = _radii(4, P.sigma, P.beta)
        a = (R_img - r_img) / (R - r)
        b = (R * r_img - R_img * r) / (R - r)
        expected = 4 * a * (R**2 - r**2)
        ulp = Decimal(math.ulp(float(expected)))
        assert b < 0 and abs(8 * b * (R - r)) > 10**15 * ulp
        assert abs(Decimal(frame_tv_integral(4, P)) - expected) <= 8 * ulp


def test_subexp_integral_vs_monte_carlo():
    quad = frame_subexp_integral(4, 0.5, P)
    mc = frame_integral_mc(4, P, "subexp", p=0.5, n_samples=10**6)
    np.testing.assert_allclose(mc, quad, rtol=5e-3)


def scipy_subexp_integral(k, p, params):
    """The frame integral by scipy's adaptive quad over rho in [r, R], with
    the distortion formed from t as frame_integral_mc forms it and
    breakpoints halving toward the inner radius, where the integrand
    peaks.  quad is asked for 1e-12 and must certify 1e-10: its own
    estimate undershoots near gain 700 (asked for 1e-10 at level 5 of
    (0.49, 100, 0.1), it certified 1.1e-11 and was 1.4e-9 away from a
    50-digit mpmath evaluation), and where it warns that 1e-12 is out of
    reach, what it does certify is checked instead."""
    from scipy.integrate import quad

    rad = radii(k, params)
    a = (rad.R_img - rad.r_img) / (rad.R - rad.r)

    def integrand(rho):
        t = (rad.r_img + a * (rho - rad.r)) / rho
        K = max(t / a, a / t)
        return math.exp(p * K / (1.0 + math.log(K))) * 8.0 * rho

    points = [rad.r + (rad.R - rad.r) * 2.0**-j for j in range(1, 60)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, abserr = quad(
            integrand, rad.r, rad.R, epsabs=0.0, epsrel=1e-12, limit=400, points=points
        )
    assert abserr <= 1e-10 * value
    return value


# (sigma, beta, p); the last three have pre-asymptotic frames (T_k >= alpha,
# kappa < 1) at their first levels, kappa far below 1 at (0.3, 200) and (0.25, 1e3)
SUBEXP_ORACLE_CASES = [
    (0.45, 2.0, 0.5), (0.25, 2.0, 2.0), (0.1, 0.5, 1.0), (0.45, 2.0, 20.0),
    (0.49, 100.0, 0.1), (0.3, 200.0, 0.5), (0.25, 1e3, 1e-3),
]


@pytest.mark.parametrize("sigma, beta, p", SUBEXP_ORACLE_CASES)
def test_subexp_integral_vs_scipy_quad(sigma, beta, p):
    """Within 1e-9 of scipy's adaptive quadrature wherever the integrand
    stays in double range: the gain at the sup is below 700, and the image
    side, which the oracle's t reads, has not underflowed."""
    params = ConstructionParams(sigma, beta)
    compared = 0
    for k in (3, 4, 5, 6, 8, 10, 15, 20, 30, 50, 80, 120, 200):
        if subexp_gain(sup_distortion(k, params), p) > 700.0 or image_side(k, params) == 0.0:
            continue
        oracle = scipy_subexp_integral(k, p, params)
        np.testing.assert_allclose(frame_subexp_integral(k, p, params), oracle, rtol=1e-9)
        compared += 1
    assert compared >= 4


def test_subexp_integral_rules_that_disagree_are_an_error(monkeypatch):
    """A 32-node rule that drifts from the 16-node one by more than 1e-9
    raises ValueError instead of returning either value."""
    import numpy.polynomial.legendre as legendre

    exact = legendre.leggauss

    def drifting(n):
        x, w = exact(n)
        return x, w * (1.0 + 1e-6 * (n == 32))

    monkeypatch.setattr(legendre, "leggauss", drifting)
    with pytest.raises(ValueError, match="16- and 32-node rules differ by 1.000e-06"):
        frame_subexp_integral(5, 0.5, P)


def test_cli_loads_neither_scipy_nor_the_quadrature_nodes():
    """import cantormap.cli loads neither scipy nor numpy.polynomial (the
    Gauss-Legendre nodes load on the first frame_subexp_integral call),
    and that call loads no scipy."""
    probe = (
        "import sys\n"
        "def loaded(name):\n"
        "    return [m for m in sys.modules if m == name or m.startswith(name + '.')]\n"
        "import cantormap.cli\n"
        "assert not loaded('scipy') and not loaded('numpy.polynomial'), sys.modules.keys()\n"
        "import cantormap\n"
        "assert cantormap.frame_subexp_integral(5, 0.5, cantormap.ConstructionParams(0.45, 2.0)) > 0\n"
        "assert not loaded('scipy'), loaded('scipy')\n"
        "assert loaded('numpy.polynomial')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def reference_frame_integral_mc(k, params, kind, p=None, n_samples=10**6, seed=0x5EED):
    """frame_integral_mc as it was when it drew a full position: a face
    and an offset along it after each radius, and the integrand read at
    the sup-norm radius of that position."""
    rad = radii(k, params)
    a = coeffs(k, params)
    rng = np.random.default_rng(seed)
    rho = np.sqrt(rad.r**2 + rng.random(n_samples) * (rad.R**2 - rad.r**2))
    face = rng.integers(0, 4, n_samples)
    off = (2.0 * rng.random(n_samples) - 1.0) * rho
    dx = np.where(face == 0, rho, np.where(face == 1, -rho, off))
    dy = np.where(face >= 2, np.where(face == 2, rho, -rho), off)
    rr = np.maximum(np.abs(dx), np.abs(dy))
    t = (rad.r_img + a * (rr - rad.r)) / rr
    if kind == "jacobian":
        vals = a * t
    elif kind == "tv":
        vals = np.maximum(a, t)
    else:
        K = np.maximum(t / a, a / t)
        vals = np.exp(p * K / (1.0 + np.log(K)))
    return float(vals.mean() * 4.0 * (rad.R**2 - rad.r**2))


# (sigma, beta, level, seed); R r' < R' r at level 4 of (0.45, 2)
MC_CASES = [(0.45, 2.0, 4, 0x5EED), (0.25, 2.0, 3, 7), (0.1, 0.5, 5, 123), (0.3, 1.0, 8, 2**40)]


@pytest.mark.parametrize("n_samples", [1, 10, 10**5])
@pytest.mark.parametrize("kind", ["jacobian", "tv", "subexp"])
def test_frame_integral_mc_matches_position_draws(kind, n_samples):
    p = 0.5 if kind == "subexp" else None
    for sigma, beta, k, seed in MC_CASES:
        params = ConstructionParams(sigma, beta)
        got = frame_integral_mc(k, params, kind, p=p, n_samples=n_samples, seed=seed)
        assert got == reference_frame_integral_mc(k, params, kind, p, n_samples, seed)


@pytest.mark.parametrize("kind", ["tv", "subexp"])
def test_levels_past_the_largest_double_are_value_errors(kind):
    # 10**400 cannot be converted to a double; the CLI refuses such a
    # --k-max before any level is formed, and the library names it too
    with pytest.raises(ValueError, match="levels end at the largest double, 1.79769e[+]308; got one of 401 digits"):
        series_terms(kind, [10**400], P, p=0.5)
    with pytest.raises(ValueError, match="levels end at the largest double"):
        frame_shape(10**400, P)


def test_frame_integral_guards():
    with pytest.raises(ValueError, match="underflow"):
        frame_jacobian_integral(2000, P)
    # exp(14789.2) overflows and exp(-3097.7) underflows
    with pytest.raises(ValueError, match=r"exp\(14789\.\d+\) is past double range"):
        frame_subexp_integral(800, 200.0, P)
    with pytest.raises(ValueError, match=r"exp\(-3097\.\d+\) is past double range"):
        frame_subexp_integral(2000, 0.5, P)
    with pytest.raises(ValueError):
        frame_subexp_integral(4, -1.0, P)
    with pytest.raises(ValueError):
        frame_integral_mc(4, P, "nope")
    with pytest.raises(ValueError):
        frame_integral_mc(4, P, "subexp")


@settings(max_examples=200)
@given(
    sigma=st.one_of(
        st.sampled_from([0.125, 0.25, 0.375]),
        st.floats(0.01, 0.5, exclude_max=True),
        st.floats(-15.0, -2.0).map(lambda e: 0.5 - 10.0**e),
    ),
    beta=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
    depth=st.integers(3, 60),
)
@example(sigma=0.45, beta=2.0, depth=40)
def test_jacobian_integrals_telescope_to_image_area(sigma, beta, depth):
    """The 4^k frame Jacobian integrals of levels 3..depth and the 4^depth
    depth-level squares, summed exactly in Fraction, lie within 2 ulp of
    the unit square's area 1: each closed form lies within 2 ulp of its
    image frame's area, and those areas telescope exactly over the double
    image sides."""
    params = ConstructionParams(sigma, beta)
    total = sum(4**k * Fraction(frame_jacobian_integral(k, params)) for k in range(3, depth + 1))
    total += 4**depth * Fraction(image_side(depth, params)) ** 2
    assert abs(total - 1) <= 2 * Fraction(1, 2**52)


# uniform points in the cross-layer property, and the fewest of them each
# region (one level's frames, the depth squares) should expect to hold
MC_POINTS, MC_MIN_HITS = 10**5, 100


@settings(max_examples=100)
@given(
    sigma=st.one_of(st.sampled_from([0.25, 0.375]), st.floats(0.16, 0.49)),
    beta=st.floats(0.1, 8.0),
    p_share=st.floats(0.05, 0.95),
    depth=st.integers(3, 10),
    seed=st.integers(0, 2**32 - 1),
)
@example(sigma=0.45, beta=2.0, p_share=0.5 / p_threshold(P), depth=8, seed=0x5EED)
def test_fields_batch_means_match_the_closed_form_sums(sigma, beta, p_share, depth, seed):
    """The fields_batch means of |Df|, J and exp(G(K)) over uniform
    points lie within 5 standard errors of the whole-square sums: the
    4^k frame integrals of levels 3..depth (frame_tv_integral,
    frame_jacobian_integral, frame_subexp_integral) plus the 4^depth
    depth squares, where the map is the similarity.  p lies below p0.

    A standard error stands for the mean's error only where the sample
    sees every part of the integral.  So the depth stops where some
    level's frames or the depth squares would hold fewer than
    MC_MIN_HITS points in expectation (level k's frames cover
    (2 sigma)^(2k - 2) (1 - 4 sigma^2) of the square, 1 - 64 sigma^6 at
    level 3, and the depth squares (2 sigma)^(2 depth)); and a quantity
    is read only where its sup is at most MC_POINTS / 100 times its
    mean, so that no one point moves the mean by more than 1% of it
    (the sups are max(a, t), a t and exp(G(K)) at a frame's inner or
    outer radius, and the similarity's values on the squares).  Over
    the drawn ranges only exp(G(K)) ever skips."""
    params = ConstructionParams(sigma, beta)
    depth = min(depth, resolvable_depth(params))
    q = (2.0 * sigma) ** 2
    while depth > 3 and MC_POINTS * q ** (depth - 1) * min(1.0 - q, q) < MC_MIN_HITS:
        depth -= 1
    assert MC_POINTS * min(1.0 - 64.0 * sigma**6, q**depth) >= MC_MIN_HITS
    p = p_share * p_threshold(params)
    f = fields_batch(np.random.default_rng(seed).random((MC_POINTS, 2)), depth, params)
    K = f["distortion"]
    levels = range(3, depth + 1)
    square_area = 4.0**depth * preimage_side(depth, params) ** 2
    s_sim = image_side(depth, params) / preimage_side(depth, params)
    slopes, rads = [coeffs(k, params) for k in levels], [radii(k, params) for k in levels]
    t_sups = [max(rad.r_img / rad.r, rad.R_img / rad.R) for rad in rads]
    gain_sup = max(p, *(subexp_gain(sup_distortion(k, params), p) for k in levels))
    cases = [
        (f["derivative_norm"], [frame_tv_integral(k, params) for k in levels], s_sim,
         max(*slopes, *t_sups, s_sim)),
        (f["jacobian"], [frame_jacobian_integral(k, params) for k in levels], s_sim**2,
         max(*(a * t for a, t in zip(slopes, t_sups)), s_sim**2)),
        (np.exp(p * K / (1.0 + np.log(K))), [frame_subexp_integral(k, p, params) for k in levels],
         math.exp(p), math.exp(gain_sup)),
    ]
    for i, (values, frame_integrals, on_squares, sup) in enumerate(cases):
        want = math.fsum(4.0**k * v for k, v in zip(levels, frame_integrals))
        want += square_area * on_squares
        if sup > MC_POINTS / 100 * want:
            assert i == 2, (i, sup, want)
            continue
        z = (values.mean() - want) / (values.std(ddof=1) / math.sqrt(MC_POINTS))
        assert abs(z) < 5.0, (i, depth, p, z)


def test_series_log_terms_match_linear_integrals():
    levels = range(3, 41)
    diag = series_terms("tv", levels, P)
    for term in diag.terms:
        direct = math.log(frame_tv_integral(term.level, P))
        np.testing.assert_allclose(term.log_per_frame, direct, rtol=1e-12)
        assert term.count_log2 == 2 * term.level
        assert term.log_term == term.count_log2 * LOG2 + term.log_per_frame


@pytest.mark.parametrize("kind", ["tv", "subexp"])
def test_series_levels_start_at_3(kind):
    """frame_shape's depth gate refuses a level below 3 for either kind."""
    with pytest.raises(ValueError, match="^levels start at 3, got 2$"):
        series_terms(kind, [2, 5], P, p=0.5)


def test_subexp_log_terms_match_linear():
    diag = series_terms("subexp", range(3, 41), P, p=0.5)
    for term in diag.terms:
        rad = radii(term.level, P)
        area = 4.0 * (rad.R**2 - rad.r**2)
        direct = math.log(area) + subexp_gain(sup_distortion(term.level, P), 0.5)
        np.testing.assert_allclose(term.log_per_frame, direct, atol=1e-12)


def test_series_ratio_consistency():
    diag = series_terms("tv", [5, 6], P)
    implied = math.exp(
        2.0 * LOG2 + diag.terms[1].log_per_frame - diag.terms[0].log_per_frame
    )
    np.testing.assert_allclose(diag.ratios[0], implied, rtol=1e-15)


def test_tv_ratios_tend_to_two_sigma():
    diag = series_terms("tv", [10**4], P)
    assert diag.limit_ratio == 2.0 * P.sigma
    assert diag.verdict == "convergent"
    np.testing.assert_allclose(diag.ratios[0], 0.9, atol=1e-4)


def test_subexp_ratio_approaches_limit():
    diag = series_terms("subexp", [10**6], P, p=0.5)
    np.testing.assert_allclose(diag.ratios[0], diag.limit_ratio, rtol=2e-2)


def test_verdict_flips_at_threshold():
    p0 = p_threshold(P)
    assert series_terms("subexp", [4], P, p=0.9 * p0).verdict == "convergent"
    assert series_terms("subexp", [4], P, p=1.1 * p0).verdict == "divergent"
    assert series_terms("subexp", [4], P, p=p0).verdict == "inconclusive"


def test_partial_sums_settle_below_threshold():
    """For p below the threshold the grouped series is Cauchy: by level
    250 a term sits twelve orders below the partial sum."""
    diag = series_terms("subexp", range(3, 251), P, p=0.5)
    log_terms = [t.log_term for t in diag.terms]
    total = log_sum(log_terms)
    assert log_terms[-1] - total < math.log(1e-12)
    assert all(r < 1.0 for r in diag.ratios[-20:])


def test_terms_grow_above_threshold():
    p0 = p_threshold(P)
    diag = series_terms("subexp", [10**4, 10**5], P, p=2.0 * p0)
    assert all(r > 1.0 for r in diag.ratios)
    assert diag.verdict == "divergent"


def test_series_validation():
    with pytest.raises(ValueError):
        series_terms("bad", [4], P)
    with pytest.raises(ValueError):
        series_terms("subexp", [4], P)
    with pytest.raises(ValueError):
        series_terms("tv", [], P)
    with pytest.raises(ValueError):
        series_terms("tv", [2], P)
    with pytest.raises(ValueError):
        series_terms("tv", [4], P, margin=0.0)
    # T_k >= alpha at 1e101 here: the refusal does not depend on the side of alpha
    with pytest.raises(ValueError, match="past 1e100, the deepest gain_ratio level"):
        series_terms("subexp", [10**101], ConstructionParams(0.45, 1e104), p=0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: series_terms("subexp", [1000], P, p=v),
        lambda v: series_terms("subexp", [1000], P, p=0.5, margin=v),
        lambda v: series_terms("tv", [1000], P, margin=v),
        lambda v: gain_ratio(1000, v, P),
        lambda v: gain_ratio_limit(v, P),
        lambda v: frame_subexp_integral(5, v, P),
        lambda v: frame_integral_mc(4, P, "subexp", p=v, n_samples=16),
    ],
    ids=[
        "series_p", "series_margin", "tv_margin", "gain_ratio", "gain_ratio_limit",
        "frame_integral", "frame_integral_mc",
    ],
)
def test_exponents_and_margins_must_be_finite(call, value):
    with pytest.raises(ValueError, match="must be finite and positive, got"):
        call(value)


def test_gain_ratio_limit_quarter_sigma():
    # alpha = 1 at sigma = 1/4, so the limit at p = 2, beta = 2 is e^2
    params = ConstructionParams(0.25, 2.0)
    np.testing.assert_allclose(gain_ratio_limit(2.0, params), math.e**2, rtol=1e-15)


def test_gain_ratio_limit_overflow_is_a_domain_error():
    # alpha = 499 at sigma = 0.001: exp(2 * 1 * 499 / 1) is past the largest double
    params = ConstructionParams(0.001, 1.0)
    with pytest.raises(ValueError, match=r"exp\(998\.0\) overflows"):
        gain_ratio_limit(1.0, params)
    with pytest.raises(ValueError, match="overflows"):
        series_terms("subexp", [10, 100], params, p=1.0)
    # just below the overflow the limit is still a finite double
    assert math.isfinite(gain_ratio_limit(709.0 / 998.0, params))


def test_gain_ratio_slow_convergence_pinned():
    params_a = ConstructionParams(0.25, 2.0)
    dev_a = abs(gain_ratio(10**9, 2.0, params_a) / gain_ratio_limit(2.0, params_a) - 1.0)
    np.testing.assert_allclose(dev_a, 0.2707985651354095, rtol=1e-9)
    params_b = ConstructionParams(0.45, 1.0)
    dev_b = abs(gain_ratio(10**9, 0.5, params_b) / gain_ratio_limit(0.5, params_b) - 1.0)
    np.testing.assert_allclose(dev_b, 0.011694279226943919, rtol=1e-9)


@pytest.mark.parametrize("sigma, beta, p", [(0.25, 2.0, 2.0), (0.45, 1.0, 0.5)])
def test_gain_ratio_matches_exact_oracle(sigma, beta, p):
    # the two gauge exponents are of size k and cancel to order one,
    # which double precision alone resolves only to about 1e-7 at k = 1e9
    params = ConstructionParams(sigma, beta)
    for e in range(3, 101):
        exact = float(exact_gain_ratio(10**e, sigma, beta, p))
        np.testing.assert_allclose(gain_ratio(10**e, p, params), exact, rtol=1e-12)


def test_gain_ratio_rejects_pre_asymptotic_levels():
    with pytest.raises(ValueError, match="below 1"):
        gain_ratio(6, 1.0, ConstructionParams(0.48, 2.0))
    with pytest.raises(ValueError):
        gain_ratio(100, -1.0, P)
    with pytest.raises(ValueError, match="k <= 1e100"):
        gain_ratio(3, 1.0, P)
    gain_ratio(GAIN_RATIO_MAX_LEVEL, 1.0, P)
    with pytest.raises(ValueError, match="k <= 1e100"):
        gain_ratio(GAIN_RATIO_MAX_LEVEL + 1, 1.0, P)
    # exp(2 p alpha / beta) with alpha = 499 is past the largest double
    with pytest.raises(ValueError, match="overflows"):
        gain_ratio(10**60, 1.0, ConstructionParams(0.001, 1.0))


def test_threshold_anchors():
    np.testing.assert_allclose(
        p_threshold(ConstructionParams(0.25, 2.0)), 2.0 * LOG2, rtol=1e-15
    )
    np.testing.assert_allclose(
        p_threshold(ConstructionParams(0.499, 1.0)), 0.9989993326658104, rtol=1e-12
    )
    assert p_threshold(ConstructionParams(0.45, 4.0)) == 2.0 * p_threshold(P)


def _log_uniform(lo: float, hi: float):
    """Floats in [lo, hi], spread evenly over the decades as well as
    Hypothesis's own picks (which favor the ends and round numbers)."""
    spread = st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))
    return st.one_of(st.floats(lo, hi), spread)


@settings(max_examples=400)
@given(
    sigma=st.one_of(
        st.just(1e-300), st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
        _log_uniform(1e-300, 0.49999999999999994),
    ),
    beta=_log_uniform(1e-300, 1e6),
    p=_log_uniform(1e-300, 1e3),
    levels=st.lists(
        st.one_of(st.integers(3, 10**6), _log_uniform(3.0, 1e6).map(int)), min_size=1, max_size=3
    ),
    kind=st.sampled_from(["tv", "subexp"]),
)
@example(sigma=1e-6, beta=2.0, p=0.5, levels=[4, 100], kind="subexp")
@example(sigma=0.1, beta=1e6, p=0.5, levels=[4, 100], kind="subexp")
@example(sigma=0.1, beta=1e6, p=1e-300, levels=[3, 5], kind="subexp")
@example(sigma=1e-300, beta=2.0, p=0.5, levels=[3], kind="tv")
def test_series_terms_are_finite_or_a_domain_error(sigma, beta, p, levels, kind):
    """Every printed log term and ratio is a finite double, or the call
    raises ValueError; no other exception escapes."""
    params = ConstructionParams(sigma, beta)
    try:
        diag = series_terms(kind, levels, params, p=p)
    except ValueError:
        return
    assert all(math.isfinite(t.log_term) for t in diag.terms)
    assert all(math.isfinite(r) for r in diag.ratios)


@settings(max_examples=50)
@given(
    sigma=st.floats(0.01, 0.499),
    beta=_log_uniform(0.1, 10.0),
    k=st.one_of(st.integers(4, 10**6), _log_uniform(4.0, 1e15).map(int)),
)
@example(sigma=0.45, beta=2.0, k=4)
def test_series_tv_log_terms_are_the_levels_totals(sigma, beta, k):
    """A tv log term is the log of the level's total integral over its 4^k
    frames, exact_tv_log_term, within 8 u of the size of its parts
    2 k log 2 and the log per frame, which cancel."""
    term = series_terms("tv", [k], ConstructionParams(sigma, beta)).terms[0]
    scale = 2 * k * LOG2 + abs(term.log_per_frame)
    assert abs(Decimal(term.log_term) - exact_tv_log_term(k, sigma, beta)) <= 8 * 2.0**-53 * scale


@settings(max_examples=200)
@given(
    sigma=st.one_of(
        st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
        _log_uniform(1e-300, 0.49999999999999994),
    ),
    beta=_log_uniform(1e-300, 1e6),
    p=_log_uniform(1e-300, 1e3),
    k=st.one_of(st.integers(3, 100), _log_uniform(3.0, 1e100).map(int)),
)
# W = alpha = 1.2e166 halves 1489 times, past 2^-1074: the edges must not underflow
@example(sigma=4.262496138187736e-167, beta=1.1746001594959545e-81, p=3.622808313630462e-14,
         k=28594991938297197950230671717150535257028483350528)
# kappa = 8e26 and w up to alpha = 1.5e57: e = (w / (1 + w)) (1 - kappa) / kappa rounds to -1
@example(sigma=3.3e-58, beta=1e-20, p=1e-3, k=10**6)
# the decay scale 1 / |G'(0)| is near exp(-892), below the least normal double
@example(sigma=0.04008347841217813, beta=207695.10872815413, p=0.02586246718324028, k=57)
def test_frame_subexp_integral_is_finite_or_a_domain_error(sigma, beta, p, k):
    """The frame integral and its log are finite doubles, or the call
    raises ValueError; no other exception or numpy warning escapes."""
    params = ConstructionParams(sigma, beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for integral in (frame_subexp_integral, _log_subexp_integral):
            try:
                assert math.isfinite(integral(k, p, params))
            except ValueError:
                pass


# sigma in [1e-3, 1/2), with 0.4999 and values within 1e-3 to 1e-15 of 1/2
_SIGMA_TO_HALF = st.one_of(
    _log_uniform(1e-3, 0.49999999999999994),
    st.just(0.4999),
    st.floats(-15.0, -3.0).map(lambda e: 0.5 - 10.0**e),
)


def _ulps(ratio: float, exact: Decimal) -> Decimal:
    return abs(Decimal(ratio) - exact) / Decimal(math.ulp(float(exact)))


@settings(max_examples=150)
@given(
    sigma=_SIGMA_TO_HALF,
    beta=_log_uniform(0.1, 10.0),
    p=_log_uniform(0.01, 100.0),
    k=st.one_of(st.integers(3, 100), _log_uniform(3.0, 1e100).map(int)),
    kind=st.sampled_from(["tv", "subexp"]),
)
@example(sigma=0.4999, beta=2.0, p=0.5, k=1000, kind="tv")
@example(sigma=0.5 - 1e-12, beta=2.0, p=0.5, k=3, kind="tv")
@example(sigma=0.5 - 1e-12, beta=2.0, p=1e-3, k=3, kind="subexp")
@example(sigma=0.45, beta=2.0, p=0.5, k=3, kind="subexp")
# pre-asymptotic levels (T_k >= alpha): (0.49, 2) has them from 3 to 15
@example(sigma=0.49, beta=2.0, p=0.5, k=7, kind="subexp")
@example(sigma=0.4999999, beta=3.0, p=0.1, k=40, kind="subexp")
@example(sigma=0.49999999, beta=3.3887528437611323, p=0.5, k=49, kind="tv")
@example(sigma=0.45, beta=2.0, p=0.5, k=10**15, kind="tv")
@example(sigma=0.45, beta=2.0, p=0.5, k=10**6, kind="subexp")
@example(sigma=0.45, beta=2.0, p=0.5, k=177827941, kind="subexp")
@example(sigma=0.25, beta=2.0, p=0.5, k=10**20, kind="subexp")
@example(sigma=0.001, beta=6.5765759402787705, p=0.9216945476761734, k=10**100, kind="subexp")
def test_series_ratios_match_their_oracles(sigma, beta, p, k, kind):
    """A printed term ratio lies within 4 ulp of the decimal oracle formed
    from the exact radii, for k in [3, 1e15], the pre-asymptotic subexp
    levels (T_k >= alpha) included, and a ratio past double range is a
    ValueError.  Past 1e15, where the radii leave decimal's exponent range,
    the subexp ratio is (2 sigma)^2 exact_gain_ratio (the frame sup is
    alpha / T_k, as T_k < alpha at every such level of this domain, and
    the area ratio sigma^2), up to 1e100."""
    params = ConstructionParams(sigma, beta)
    alpha = (1.0 - 2.0 * sigma) / (2.0 * sigma)
    if kind == "tv":
        assume(k <= 10**15)
        exact = exact_tv_ratio(k, sigma, beta)
    else:
        assume(2.0 * p * alpha / beta < 700.0)  # the limit the verdict reads is finite
        if k <= 10**15:
            exact = exact_subexp_ratio(k, sigma, beta, p)
        else:
            exact = 4 * Decimal(sigma) ** 2 * exact_gain_ratio(k, sigma, beta, p)
    if exact > Decimal(sys.float_info.max):
        with pytest.raises(ValueError, match="term ratio exp"):
            series_terms(kind, [k], params, p=p)
        return
    assert _ulps(series_terms(kind, [k], params, p=p).ratios[0], exact) <= 4


@settings(max_examples=150)
@given(
    sigma=_SIGMA_TO_HALF,
    beta=_log_uniform(0.1, 10.0),
    k=st.one_of(st.integers(4, 100), _log_uniform(4.0, 1e15).map(int)),
)
# u/2 - sigma nears 0 here, and u rounded near 1 would cost it its digits
@example(sigma=0.49999999, beta=0.3, k=10**6)
def test_tv_log_terms_match_their_oracle(sigma, beta, k):
    """A printed tv log per frame lies within 4 ulp of the log of the
    decimal oracle's frame integral."""
    pf = series_terms("tv", [k], ConstructionParams(sigma, beta)).terms[0].log_per_frame
    exact = exact_tv_integral(k, sigma, beta).ln()
    assert abs(Decimal(pf) - exact) <= 4 * Decimal(math.ulp(pf))


@settings(max_examples=300)
@given(
    sigma=st.one_of(_SIGMA_TO_HALF, st.floats(-15.0, -12.0).map(lambda e: 0.5 - 10.0**e)),
    beta=_log_uniform(0.1, 10.0),
    k=st.integers(3, 60),
)
@example(sigma=0.499999999, beta=2.0, k=4)
@example(sigma=0.45, beta=2.0, k=4)
@example(sigma=0.5 - 1e-12, beta=2.0, k=3)
def test_tv_integral_matches_its_oracle(sigma, beta, k):
    """The tv frame integral lies within 8 ulp of the decimal oracle: P P' h
    is formed from factors of size one, so nothing cancels as sigma nears
    1/2, level 3 included (the largest measured is 6.9 ulp, from the powers
    in P P' at beta near 10), and the 8 max(R r' - R' r, 0) term drops out
    where it is negative, as at level 4 of (0.45, 2)."""
    got = frame_tv_integral(k, ConstructionParams(sigma, beta))
    exact = exact_tv_integral(k, sigma, beta)
    assert abs(Decimal(got) - exact) <= 8 * Decimal(math.ulp(float(exact)))


# The largest k |gap(k+1) - gap(k)| found over this domain, 12.44, sits at
# its corner k = 10, beta = 100, p = 5, sigma = 0.181.
SUBEXP_GAP_STEP = 16.0


@settings(max_examples=150)
@given(
    sigma=st.floats(0.05, 0.49),
    beta=_log_uniform(0.1, 100.0),
    p=_log_uniform(0.1, 5.0),
    k=_log_uniform(10.0, 1e6).map(int),
)
@example(sigma=0.1808, beta=100.0, p=5.0, k=10)
# kappa = alpha / T_k is 1 + 9e-16 here: K is near 1 across the frame, and the true
# integral reads 1.4e-14 above the sup term, within rounding
@example(sigma=0.4420595573539897, beta=50.0, p=1.0, k=52)
def test_subexp_integral_ratios_follow_the_sup_terms(sigma, beta, p, k):
    """The series' subexp terms are the frame area times the gauge at the
    sup; the true frame integrals (_log_subexp_integral) never exceed them
    beyond rounding (4 ulp), and the gap, log true - log sup term, moves by
    at most SUBEXP_GAP_STEP / k from level k to k + 1.  So consecutive true
    terms keep the sup terms' ratio up to a factor exp(+-16 / k), whose
    limit is 1, and the divergent verdict read off the sup terms holds for
    the true series.  Both logs share G(K0) and the area, so the gap is
    their difference normalised by G(K0)."""
    params = ConstructionParams(sigma, beta)
    gaps = []
    for n in (k, k + 1):
        sup = _series_log_per_frame("subexp", n, p, params)
        true = _log_subexp_integral(n, p, params)
        assert true <= sup + 4 * math.ulp(abs(sup))
        gaps.append(true - sup)
    assert abs(gaps[1] - gaps[0]) <= SUBEXP_GAP_STEP / k


@settings(max_examples=100)
@given(
    sigma=_SIGMA_TO_HALF,
    beta=_log_uniform(0.1, 10.0),
    margin=_log_uniform(1e-6, 0.1),
)
def test_subexp_verdict_flips_at_p0(sigma, beta, margin):
    """At p0 (1 -+ eps) the limiting ratio is exp(-+ 2 margin), outside the
    margin band on either side; at p0 it is 1, inside it."""
    params = ConstructionParams(sigma, beta)
    p0 = p_threshold(params)
    # the log limit 2 log(2 sigma) + 2 p alpha / beta is 2 log(1 / (2 sigma)) eps at p0 (1 + eps)
    eps = margin / math.log(1.0 / (2.0 * sigma))
    assume(eps < 1.0)

    def verdict(p):
        return series_terms("subexp", [1000], params, p=p, margin=margin).verdict

    assert verdict(p0 * (1.0 - eps)) == "convergent"
    assert verdict(p0 * (1.0 + eps)) == "divergent"
    assert verdict(p0) == "inconclusive"


def test_gain_ratio_resolves_small_beta():
    # 1 - u_k ~ beta / (2 k log k): the power costs the digits of 1 / beta too
    for beta in (1e-30, 1e-40):
        p = 1e-3 * beta
        exact = exact_gain_ratio(10**6, 0.25, beta, p)
        assert _ulps(gain_ratio(10**6, p, ConstructionParams(0.25, beta)), exact) <= 1


def test_gain_ratio_past_decimal_range_is_a_domain_error():
    # the gap of the gauge exponents is near 2 p alpha / beta = 1e12
    with pytest.raises(ValueError, match="overflows"):
        gain_ratio(1000, 1e6, ConstructionParams(0.001, 1e-3))
