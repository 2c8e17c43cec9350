import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mass_oracle import brute_mass_bound

from cantormap.construction import LOG2, ConstructionParams
from cantormap.measure import (
    PRE_COVER_MAX_LEVEL,
    Gauge,
    box_dimension_pre,
    expected_trend,
    gauge_log_eval,
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


def test_gauge_domain():
    with pytest.raises(ValueError):
        gauge_log_eval(H, -1.0)
    with pytest.raises(ValueError):
        gauge_log_eval(H, -0.5)


def test_gauge_log_eval_matches_direct():
    for t in (0.01, 0.2, 0.3):
        direct = t**2 * math.log(math.log(1.0 / t)) ** 2
        np.testing.assert_allclose(gauge_log_eval(H, math.log(t)), math.log(direct), atol=1e-13)
    # far below double range the log form keeps working
    np.testing.assert_allclose(
        gauge_log_eval(H, -1e6), -2e6 + 2.0 * math.log(math.log(1e6)), rtol=1e-12
    )


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


@given(
    alpha=st.floats(1e-300, 1e300),
    sigma=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    k=st.integers(3, 10**9),
)
def test_power_gauge_sum_is_the_bare_power_law(alpha, sigma, k):
    """Gauge(alpha, 0) gives log_count + alpha log t to the bit: the
    0.0 * loglog(1/t) term is a signed zero, as log t < -1."""
    params = ConstructionParams(sigma, 2.0)
    log_t = k * math.log(sigma)
    assert gauge_log_eval(Gauge(alpha, 0.0), log_t) == alpha * log_t
    assert natural_cover_sum("pre", Gauge(alpha, 0.0), k, params) == k * LOG2 + alpha * log_t


def exact_pre_log_sum(k, n, sigma):
    """log of 2^k (sigma^k)^n at 60 digits, from the double n and sigma."""
    with localcontext() as ctx:
        ctx.prec = 60
        return k * Decimal(2).ln() + Decimal(n) * k * Decimal(sigma).ln()


# sigmas at whose box dimension the pre-image log sum cancels to ~0
_PRE_SIGMAS = [i / 100.0 for i in range(1, 50)]


def _pre_log_sum_error(k):
    """The worst |float - exact| of the level-k pre-image log sum at the
    box dimension over _PRE_SIGMAS, the float formed the way
    natural_cover_sum forms it, at any level."""
    worst = 0.0
    for sigma in _PRE_SIGMAS:
        gauge = Gauge(box_dimension_pre(ConstructionParams(sigma, 2.0)) / 2.0, 0.0)
        got = k * LOG2 + gauge_log_eval(gauge, k * math.log(sigma))
        worst = max(worst, float(abs(Decimal(got) - exact_pre_log_sum(k, gauge.n, sigma))))
    return worst


def test_pre_cover_max_level_is_the_last_resolved_decade():
    """PRE_COVER_MAX_LEVEL is the last power of ten at which the log sum
    at the box dimension stays within 1e-6 of a 60-digit evaluation; the
    error grows like k, so the resolved decades run from the first on."""
    resolved = [j for j in range(3, 13) if _pre_log_sum_error(10**j) <= 1e-6]
    assert resolved == list(range(3, resolved[-1] + 1))
    assert PRE_COVER_MAX_LEVEL == 10 ** resolved[-1]


def test_pre_cover_sum_refuses_levels_past_its_limit():
    # at k = 1e12 the float log is 0.0 where the exact value is 1.9e-5
    params = ConstructionParams(0.45, 2.0)
    gauge = Gauge(box_dimension_pre(params) / 2.0, 0.0)
    got = natural_cover_sum("pre", gauge, PRE_COVER_MAX_LEVEL, params)
    assert abs(got - float(exact_pre_log_sum(PRE_COVER_MAX_LEVEL, gauge.n, 0.45))) <= 1e-6
    for k in (PRE_COVER_MAX_LEVEL + 1, 10**12):
        with pytest.raises(ValueError, match=f"pre-image cover sums need k <= 1000000000, got {k}"):
            natural_cover_sum("pre", gauge, k, params)
    # the image sums carry no such terms and have no such limit
    assert math.isfinite(natural_cover_sum("image", H, 10**12, params))


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
