import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mass_oracle import brute_mass_bound

from cantormap.cli import _geometric_levels
from cantormap.construction import ConstructionParams
from cantormap.measure import (
    Gauge,
    box_dimension_pre,
    expected_trend,
    mass_distribution_bound,
    natural_cover_sum,
    threshold_scan,
)

P = ConstructionParams(0.45, 2.0)
H = Gauge(2, 2.0)


def test_gauge_validation():
    with pytest.raises(ValueError):
        Gauge(0, 2.0)
    with pytest.raises(ValueError):
        Gauge(2, -0.1)
    Gauge(2, 0.0)
    Gauge(1.5, 2.0)  # any real power n > 0


@pytest.mark.parametrize("n", [-1.0, math.inf, math.nan])
def test_gauge_rejects_non_finite_or_non_positive_n(n):
    with pytest.raises(ValueError, match="n must be finite and positive"):
        Gauge(n, 0.0)


@pytest.mark.parametrize("beta", [math.inf, math.nan])
def test_gauge_rejects_non_finite_beta(beta):
    with pytest.raises(ValueError, match="beta must be finite and non-negative"):
        Gauge(2, beta)


def test_image_cover_sums_stationary_under_own_gauge():
    """Under h_{2,beta} the image sums climb toward 1 and stay order one."""
    s9 = natural_cover_sum("image", H, 10**9, P)
    np.testing.assert_allclose(math.exp(s9), 0.9649406773610595, rtol=1e-12)
    decades = [natural_cover_sum("image", H, 10**j, P) for j in range(3, 10)]
    assert all(a < b for a, b in zip(decades, decades[1:]))
    assert all(math.log(0.5) < s < 0.0 for s in decades)


def test_pre_cover_sums_power_gauge():
    for sigma in (0.30, 0.45, 0.49):
        params = ConstructionParams(sigma, 2.0)
        alpha_star = box_dimension_pre(params) / 2.0
        s = natural_cover_sum("pre", Gauge(alpha_star, 0.0), 1000, params)
        assert abs(s) <= 1e-9
        above = natural_cover_sum("pre", Gauge(alpha_star + 0.05, 0.0), 1000, params)
        assert math.exp(above) < 1e-6


def test_pre_cover_sum_under_a_doubly_logarithmic_gauge():
    """log of 2^k h(t) with t = sigma^k, formed directly from t."""
    for sigma, k, gauge in ((0.3, 5, H), (0.01, 3, Gauge(1.5, 0.5)), (0.45, 40, Gauge(0.8, 7.0))):
        t = sigma**k
        direct = k * math.log(2.0) + math.log(t**gauge.n * math.log(math.log(1.0 / t)) ** gauge.beta)
        got = natural_cover_sum("pre", gauge, k, ConstructionParams(sigma, 2.0))
        np.testing.assert_allclose(got, direct, rtol=1e-13)


def exact_pre_log_sum(k, n, sigma):
    """log of 2^k (sigma^k)^n at 80 digits from the double n and sigma,
    k (log 2 + n log sigma), and log 2 + n |log sigma|, the size of the
    rate's parts."""
    with localcontext() as ctx:
        ctx.prec = 80
        log_sigma = Decimal(sigma).ln()
        return k * (Decimal(2).ln() + Decimal(n) * log_sigma), Decimal(2).ln() - Decimal(n) * log_sigma


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))


@given(
    alpha=st.one_of(st.none(), st.floats(1e-300, 1e300), _log_uniform(1e-300, 1e300)),
    sigma=st.one_of(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
                    _log_uniform(1e-300, 0.49999999999999994)),
    k=st.one_of(st.integers(3, 10**9), st.floats(0.48, 300.0).map(lambda e: int(10.0**e))),
)
@example(alpha=None, sigma=0.45, k=10**12)
@example(alpha=None, sigma=0.49, k=10**300)
@example(alpha=0.5, sigma=0.25, k=3)
def test_power_gauge_sum_is_the_bare_power_law(alpha, sigma, k):
    """Gauge(alpha, 0) gives the log of 2^k (sigma^k)^alpha within 3 u of
    an 80-digit evaluation (the rounding of the rate c, of k and of
    their product) at every level from 3 to 1e300 where it is a finite
    double, the box dimension (alpha None) included, plus k times the
    error of the 40-digit rate, 2e-39 of its parts, which shows only
    where c is 0, as at sigma = 1/4 and alpha = 1/2.  At the box
    dimension the parts of size k cancel: at k = 1e12 and sigma = 0.45,
    k log 2 + alpha k log sigma summed in doubles rounds to 0.0 where
    the exact value is 1.9e-5."""
    params = ConstructionParams(sigma, 2.0)
    gauge = Gauge(math.log(2.0) / -math.log(sigma) if alpha is None else alpha, 0.0)
    exact, c_parts = exact_pre_log_sum(k, gauge.n, sigma)
    got = natural_cover_sum("pre", gauge, k, params)
    if abs(exact) > Decimal(sys.float_info.max):
        assert got == -math.inf
        return
    bound = 3 * Decimal(2.0**-53) * abs(exact) + k * c_parts * Decimal("2e-39")
    assert abs(Decimal(got) - exact) <= bound


# sigmas at whose box dimension the pre-image log sum cancels to ~0
_PRE_SIGMAS = [i / 100.0 for i in range(1, 50)]


def _resolved_decades(decades):
    """The decades j at which the level-10^j pre-image log sum at the box
    dimension is within 3 u of its 80-digit value, plus k times the
    40-digit rate's error, at every sigma of _PRE_SIGMAS."""
    resolved = set(decades)
    for sigma in _PRE_SIGMAS:
        params = ConstructionParams(sigma, 2.0)
        gauge = Gauge(box_dimension_pre(params) / 2.0, 0.0)
        rate, c_parts = exact_pre_log_sum(1, gauge.n, sigma)
        with localcontext() as ctx:
            ctx.prec = 80
            for j in decades:
                k = 10**j
                exact = k * rate
                got = natural_cover_sum("pre", gauge, k, params)
                bound = 3 * Decimal(2.0**-53) * abs(exact) + k * c_parts * Decimal("2e-39")
                if abs(Decimal(got) - exact) > bound:
                    resolved.discard(j)
    return sorted(resolved)


def test_pre_cover_max_level_is_the_last_resolved_decade():
    """The pre-image sums end where the depth gate does, at the largest
    double, and at the box dimension every decade up to it is resolved:
    the terms of size k enter as one rate, so their cancellation costs
    no accuracy at any level."""
    last = int(math.log10(sys.float_info.max))
    assert _resolved_decades(range(3, last + 1)) == list(range(3, last + 1))
    with pytest.raises(ValueError, match="levels end at the largest double"):
        natural_cover_sum("pre", Gauge(1.0, 0.0), 10 ** (last + 1), P)


def test_pre_cover_sum_refuses_levels_past_its_limit():
    """The pre-image sums take every level the depth gate admits, past
    the 1e9 where summing k log 2 and n k log sigma in doubles stops
    resolving the box dimension, and refuse what it refuses."""
    # at k = 1e12 the doubles' sum is 0.0 where the exact value is 1.9e-5
    params = ConstructionParams(0.45, 2.0)
    gauge = Gauge(box_dimension_pre(params) / 2.0, 0.0)
    for k in (10**9, 10**9 + 1, 10**12):
        got = natural_cover_sum("pre", gauge, k, params)
        assert abs(got - float(exact_pre_log_sum(k, gauge.n, 0.45)[0])) <= 1e-6
    assert float(exact_pre_log_sum(10**12, gauge.n, 0.45)[0]) == pytest.approx(1.9e-5, rel=0.05)
    assert math.isfinite(natural_cover_sum("pre", gauge, int(sys.float_info.max), params))
    for k in (2, int(sys.float_info.max) + 1):
        with pytest.raises(ValueError, match="levels (start at 3|end at the largest double)"):
            natural_cover_sum("pre", gauge, k, params)
    # the image sums carry no such terms: finite past 1e9, they meet the same gate
    assert math.isfinite(natural_cover_sum("image", H, 10**12, params))
    with pytest.raises(ValueError, match="levels end at the largest double"):
        natural_cover_sum("image", H, int(sys.float_info.max) + 1, params)


def exact_image_log_sum(k, beta, beta_prime):
    """log of 2^(2k) h_{2,beta'}(t_k) with log t_k = -k log 2 - (beta/2) loglog k,
    at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        log_t = -k * Decimal(2).ln() - Decimal(beta) / 2 * Decimal(k).ln().ln()
        return 2 * k * Decimal(2).ln() + 2 * log_t + Decimal(beta_prime) * (-log_t).ln().ln()


@given(
    beta=st.floats(0.1, 10.0),
    beta_prime=st.floats(0.0, 10.0),
    k=st.one_of(st.integers(3, 10**18), st.floats(0.48, 18.0).map(lambda e: int(10.0**e))),
)
@example(beta=2.0, beta_prime=2.0, k=10**18)
@example(beta=2.0, beta_prime=2.0, k=10**12)
def test_image_cover_sum_matches_decimal(beta, beta_prime, k):
    """The image covering sum under h_{2,beta'} is free of the k log 2
    terms that cancel: it stays within 1e-13 of a decimal evaluation
    up to k = 1e18."""
    got = natural_cover_sum("image", Gauge(2, beta_prime), k, ConstructionParams(0.45, beta))
    assert abs(got - float(exact_image_log_sum(k, beta, beta_prime))) <= 1e-13


def test_natural_cover_sum_validation():
    with pytest.raises(ValueError):
        natural_cover_sum("both", H, 5, P)
    with pytest.raises(ValueError):
        natural_cover_sum("pre", H, 2, P)
    with pytest.raises(ValueError):
        natural_cover_sum("pre", Gauge(-1.0, 0.0), 5, P)


@pytest.mark.parametrize(
    "call",
    [lambda: natural_cover_sum("image", H, 10**400, P),
     lambda: threshold_scan([2.0], [10**3, 10**400], P)],
    ids=["natural_cover_sum", "threshold_scan"],
)
def test_levels_past_the_largest_double_meet_the_depth_gate(call):
    """A level past double range is _check_level's ValueError, not the
    OverflowError of converting it to a float."""
    with pytest.raises(ValueError, match="levels end at the largest double, 1.79769e\\+308; "
                                         "got one of 401 digits"):
        call()


def test_threshold_scan_sums_are_natural_cover_sums_bit_for_bit():
    """One array evaluation per beta' gives each level's natural_cover_sum
    exactly, on levels from 3 past 2^53 to 1e300."""
    levels = [3, 4, 30, 1000, 2**53 + 1, 10**12, 10**18, 10**300]
    for params in (P, ConstructionParams(0.1, 50.0), ConstructionParams(0.49, 0.5)):
        table = threshold_scan([0.0, 1.99, 2.0, 2.01, 50.0], levels, params)
        want = [natural_cover_sum("image", Gauge(2, row.beta_prime), row.level, params)
                for row in table.rows]
        assert [row.log_sum for row in table.rows] == want


def test_threshold_scan_verdicts():
    levels = [10**j for j in range(3, 7)]
    table = threshold_scan([1.0, 2.0, 4.0], levels, P)
    assert table.verdicts[1.0] == "decreasing"
    assert table.verdicts[2.0] == "stationary"
    assert table.verdicts[4.0] == "growing"
    assert len(table.rows) == 3 * len(levels)
    with pytest.raises(ValueError):
        threshold_scan([2.0], [1000], P)


def test_expected_trend_is_what_the_scan_reads():
    table = threshold_scan([1.0, 2.0, 4.0], [10**j for j in range(3, 7)], P)
    assert table.verdicts == {bp: expected_trend(bp, P.beta) for bp in table.verdicts}
    assert [expected_trend(bp, 2.0) for bp in (1.999, 2.0, 2.001)] == [
        "decreasing", "stationary", "growing"]


def _resolved(table, beta_prime, beta, levels):
    """Whether every step of D = (beta' - beta) loglog(1/t_k), taken at 40
    digits at the double levels, outweighs what rounding can move the
    difference of the float sums by at its two ends: per level 2 u of
    beta' loglog(1/t_k), beta loglog(1/t_k) and the two sums, plus
    |beta' - beta| times 16 u (1 + |loglog(1/t_k)|) for the double
    loglog(1/t_k) both sums share."""
    u = Decimal(2.0**-53)
    sums = {(row.beta_prime, row.level): Decimal(row.log_sum) for row in table.rows}
    with localcontext() as ctx:
        ctx.prec = 40
        bp, b = Decimal(beta_prime), Decimal(beta)
        ends = []
        for k in sorted(set(levels)):
            kf = Decimal(float(k))
            loglog = (kf * Decimal(2).ln() + b / 2 * kf.ln().ln()).ln().ln()
            slack = (2 * u * ((bp + b) * abs(loglog) + abs(sums[beta_prime, k]) + abs(sums[beta, k]))
                     + abs(bp - b) * 16 * u * (1 + abs(loglog)))
            ends.append(((bp - b) * loglog, slack))
        return all(abs(d1 - d0) > e0 + e1 for (d0, e0), (d1, e1) in zip(ends, ends[1:]))


@settings(derandomize=True, max_examples=300)
@given(
    sigma=st.floats(1e-3, 0.499),
    beta=st.one_of(st.floats(0.05, 100.0), _log_uniform(0.05, 100.0)),
    gap=st.one_of(st.floats(1e-12, 10.0), _log_uniform(1e-12, 10.0)),
    below=st.booleans(),
    k_min=st.one_of(st.integers(3, 10**12), _log_uniform(3.0, 1e12).map(int)),
    decades=st.floats(1.0, 296.0),
)
# the known limit: the last step of D, 3.5e-14 from level 3e28 to 3e29, is
# inside the sums' rounding, about 1e-13 at beta' loglog(1/t) = 200, so the
# scan reads "mixed" where expected_trend says "growing"
@example(sigma=0.25, beta=48.0, gap=1e-12, below=False, k_min=3, decades=29.0)
@example(sigma=0.45, beta=2.0, gap=1e-12, below=True, k_min=1000, decades=3.0)
def test_threshold_scan_reads_the_sign_of_beta_prime_minus_beta(
        sigma, beta, gap, below, k_min, decades):
    """On every grid measure builds, from k_min to a k_max at least ten
    times larger, the scan reads beta' = beta -+ gap, for gaps from 1e-12
    to 10, as expected_trend does wherever the float sums resolve every
    step of D, and never reads the opposite trend or "stationary": where
    their rounding hides a step it reads "mixed" or the expected trend."""
    beta_prime = beta - gap if below else beta + gap
    assume(beta_prime >= 0.0)
    k_max = min(int(k_min * 10.0**decades), int(sys.float_info.max))
    assume(k_max >= 10 * k_min)
    levels = _geometric_levels(k_min, k_max, num=max(int(round(math.log10(k_max / k_min))) + 1, 2))
    table = threshold_scan([beta_prime, beta], levels, ConstructionParams(sigma, beta))
    want = expected_trend(beta_prime, beta)
    assert table.verdicts[beta] == "stationary"
    if _resolved(table, beta_prime, beta, levels):
        assert table.verdicts[beta_prime] == want
    else:
        assert table.verdicts[beta_prime] in (want, "mixed")


def test_threshold_scan_reads_mixed_where_the_levels_are_one_double():
    """Levels 1e17 and 1e17 + 1 are the same double: no trend is resolved."""
    table = threshold_scan([1.0, 2.0, 4.0], [10**17, 10**17 + 1], P)
    assert table.verdicts == {1.0: "mixed", 2.0: "stationary", 4.0: "mixed"}


def test_mass_distribution_bound():
    rep = mass_distribution_bound(P)
    np.testing.assert_allclose(rep.m, 0.49935358776313266, rtol=1e-12)
    assert rep.at_k == 3
    assert rep.first_admissible_k == 3
    assert rep.lower_bound == rep.m / 4.0


def test_mass_bound_stable_in_k_max():
    a = mass_distribution_bound(P, k_max=10**6)
    b = mass_distribution_bound(P, k_max=10**7)
    assert a.m == b.m and a.at_k == b.at_k


def test_mass_bound_is_infimum():
    rep = mass_distribution_bound(P)
    for k in (3, 4, 10, 100):
        assert rep.m <= math.exp(natural_cover_sum("image", H, k, P)) * (1.0 + 1e-15)


# the gauge reads the side of each image square, hence the "side" ids
@pytest.mark.parametrize("k_max", [3, 4, 100, 10**6], ids=lambda k: f"side-{k}")
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0, 50.0])
def test_mass_bound_matches_brute_scan(beta, k_max):
    params = ConstructionParams(0.45, beta)
    rep = mass_distribution_bound(params, k_max=k_max)
    got = (rep.m, rep.at_k, rep.lower_bound, rep.first_admissible_k)
    assert got == brute_mass_bound(params, k_max)
    if beta == 50.0 and k_max == 10**6:
        # the dip is deep and late: the minimum is nowhere near level 3
        assert 1400 < rep.at_k < 1500


def test_mass_bound_overflow_is_a_domain_error():
    # for beta = 1e4 every sum up to level 1000 is about exp(2915)
    with pytest.raises(ValueError, match=r"log-sum\) = exp\(2914\.7"):
        mass_distribution_bound(ConstructionParams(0.45, 1e4), k_max=1000)


def test_mass_distribution_validation():
    with pytest.raises(ValueError):
        mass_distribution_bound(P, k_max=2)


def test_box_dimension_pre():
    quarter = ConstructionParams(0.25, 2.0)
    assert box_dimension_pre(quarter) == 1.0
    for sigma in (0.1, 0.3, 0.45, 0.499):
        assert box_dimension_pre(ConstructionParams(sigma, 2.0)) < 2.0
