import math

import numpy as np
import pytest
from mass_oracle import brute_mass_bound

from cantormap.construction import ConstructionParams
from cantormap.measure import (
    Gauge,
    box_dimension_pre,
    gauge_eval,
    gauge_log_eval,
    mass_distribution_bound,
    monotone_threshold,
    natural_cover_sum,
    threshold_scan,
)

P = ConstructionParams(0.45, 2.0)
H = Gauge(2, 2.0)


def test_gauge_validation():
    with pytest.raises(ValueError):
        Gauge(0, 2.0)
    with pytest.raises(ValueError):
        Gauge(1.5, 2.0)
    with pytest.raises(ValueError):
        Gauge(2, -0.1)
    Gauge(2, 0.0)


def test_gauge_eval_anchor():
    # at t = e^-e the inner loglog is exactly 1, so h(t) = t^n
    t = math.exp(-math.e)
    np.testing.assert_allclose(gauge_eval(H, t), t**2, rtol=1e-14)
    np.testing.assert_allclose(gauge_eval(Gauge(1, 5.0), t), t, rtol=1e-14)
    assert gauge_eval(Gauge(2, 0.0), 0.1) == 0.1**2


def test_gauge_domain():
    with pytest.raises(ValueError):
        gauge_eval(H, math.exp(-1.0))
    with pytest.raises(ValueError):
        gauge_eval(H, 0.5)
    with pytest.raises(ValueError):
        gauge_eval(H, 0.0)
    with pytest.raises(ValueError):
        gauge_log_eval(H, -1.0)
    with pytest.raises(ValueError):
        gauge_log_eval(H, -0.5)


def test_gauge_log_eval_matches_direct():
    for t in (0.01, 0.2, 0.3):
        lq = gauge_log_eval(H, math.log(t))
        np.testing.assert_allclose(lq.log, math.log(gauge_eval(H, t)), atol=1e-13)
    # far below double range the log form keeps working
    lq = gauge_log_eval(H, -1e6)
    np.testing.assert_allclose(lq.log, -2e6 + 2.0 * math.log(math.log(1e6)), rtol=1e-12)


def test_monotone_threshold():
    for g in (Gauge(2, 2.0), Gauge(1, 3.0)):
        t_star = monotone_threshold(g)
        assert 0.0 < t_star < math.exp(-1.0)
        x = math.log(1.0 / t_star)
        assert abs(g.n * math.log(x) * x - g.beta) <= 1e-9
    assert monotone_threshold(Gauge(2, 0.0)) == math.exp(-1.0)


def test_image_cover_sums_stationary_under_own_gauge():
    """Under h_{2,beta} the image sums climb toward 1 and stay order one."""
    s9 = natural_cover_sum("image", H, 10**9, P)
    np.testing.assert_allclose(s9.value, 0.9649406919151438, rtol=1e-12)
    decades = [natural_cover_sum("image", H, 10**j, P).log for j in range(3, 10)]
    assert all(a < b for a, b in zip(decades, decades[1:]))
    assert all(math.log(0.5) < s < 0.0 for s in decades)


def test_pre_cover_sums_power_gauge():
    for sigma in (0.30, 0.45, 0.49):
        params = ConstructionParams(sigma, 2.0)
        alpha_star = box_dimension_pre(3, params) / 2.0
        s = natural_cover_sum("pre", alpha_star, 1000, params)
        assert abs(s.log) <= 1e-9
        assert natural_cover_sum("pre", alpha_star + 0.05, 1000, params).value < 1e-6


def test_natural_cover_sum_validation():
    with pytest.raises(ValueError):
        natural_cover_sum("both", H, 5, P)
    with pytest.raises(ValueError):
        natural_cover_sum("pre", H, 2, P)
    with pytest.raises(ValueError):
        natural_cover_sum("pre", -1.0, 5, P)
    with pytest.raises(ValueError):
        natural_cover_sum("image", H, 5, P, diam_convention="radius")


def test_diam_convention():
    side = natural_cover_sum("image", 1.5, 5, P)
    diam = natural_cover_sum("image", 1.5, 5, P, diam_convention="diam")
    np.testing.assert_allclose(diam.log - side.log, 1.5 * 0.5 * math.log(2.0), atol=1e-12)
    # intervals: diameter equals length, nothing moves
    assert natural_cover_sum("pre", 1.5, 5, P, diam_convention="diam").log == (
        natural_cover_sum("pre", 1.5, 5, P).log
    )


def test_threshold_scan_verdicts():
    levels = [10**j for j in range(3, 7)]
    table = threshold_scan([1.0, 2.0, 4.0], levels, P)
    assert table.verdicts[1.0] == "decreasing"
    assert table.verdicts[2.0] == "stationary"
    assert table.verdicts[4.0] == "growing"
    assert len(table.rows) == 3 * len(levels)
    with pytest.raises(ValueError):
        threshold_scan([2.0], [1000], P)


def test_mass_distribution_bound():
    rep = mass_distribution_bound(P)
    np.testing.assert_allclose(rep.m, 0.49935358776313266, rtol=1e-12)
    assert rep.at_k == 3
    assert rep.first_admissible_k == 3
    assert rep.lower_bound == rep.m / 4.0
    assert rep.tail_limit == 1.0


def test_mass_bound_stable_in_k_max():
    a = mass_distribution_bound(P, k_max=10**6)
    b = mass_distribution_bound(P, k_max=10**7)
    assert a.m == b.m and a.at_k == b.at_k


def test_mass_bound_is_infimum():
    rep = mass_distribution_bound(P)
    for k in (3, 4, 10, 100):
        assert rep.m <= natural_cover_sum("image", H, k, P).value * (1.0 + 1e-15)


@pytest.mark.parametrize("k_max", [3, 4, 100, 10**6])
@pytest.mark.parametrize("diam_convention", ["side", "diam"])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0, 50.0])
def test_mass_bound_matches_brute_scan(beta, diam_convention, k_max):
    params = ConstructionParams(0.45, beta)
    rep = mass_distribution_bound(params, k_max=k_max, diam_convention=diam_convention)
    got = (rep.m, rep.at_k, rep.lower_bound, rep.first_admissible_k)
    assert got == brute_mass_bound(params, k_max, diam_convention)
    if beta == 50.0 and k_max == 10**6:
        # the dip is deep and late: the minimum is nowhere near level 3
        assert 1400 < rep.at_k < 1500


def test_mass_bound_overflow_is_a_domain_error():
    # for beta = 1e4 every sum up to level 1000 is about exp(2915)
    with pytest.raises(ValueError, match=r"log-sum\) = exp\(2914\.7"):
        mass_distribution_bound(ConstructionParams(0.45, 1e4), k_max=1000)


def test_mass_distribution_validation():
    with pytest.raises(ValueError):
        mass_distribution_bound(P, gauge=Gauge(2, 1.0))
    with pytest.raises(ValueError):
        mass_distribution_bound(P, gauge=Gauge(1, 2.0))
    with pytest.raises(ValueError):
        mass_distribution_bound(P, k_max=2)


def test_box_dimension_pre():
    quarter = ConstructionParams(0.25, 2.0)
    assert box_dimension_pre(3, quarter) == 1.0
    for sigma in (0.1, 0.3, 0.45, 0.499):
        params = ConstructionParams(sigma, 2.0)
        assert box_dimension_pre(3, params) < 2.0
        assert box_dimension_pre(3, params) == box_dimension_pre(50, params)
    with pytest.raises(ValueError):
        box_dimension_pre(2, P)
