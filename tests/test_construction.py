import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantormap.construction import (
    DEFAULT_CELL_CAP,
    LOG_LOG3,
    MIN_LEVEL,
    CellAddress,
    ConstructionParams,
    EnumerationCapError,
    ValidationReport,
    _axis_center,
    _bits,
    axis_centers,
    cell_axis_indices,
    enumerate_cells,
    frame_shape,
    image_side,
    image_square,
    log_image_side,
    log_log_ratio,
    preimage_side,
    preimage_square,
    radii,
    resolvable_depth,
    validate_geometry,
)

P = ConstructionParams(0.45, 2.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ConstructionParams(0.5, 2.0)
    with pytest.raises(ValueError):
        ConstructionParams(0.0, 2.0)
    with pytest.raises(ValueError):
        ConstructionParams(0.45, 0.0)
    with pytest.raises(ValueError):
        ConstructionParams(0.45, 2.0, depth_max=2)


@pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan])
def test_params_reject_non_finite_beta(beta):
    with pytest.raises(ValueError, match="beta must be finite and positive"):
        ConstructionParams(0.45, beta)


def test_sides_closed_forms():
    # values pinned against 30-digit evaluation of the closed forms
    np.testing.assert_allclose(image_side(3, P), 0.11377990332835468, rtol=5e-15)
    np.testing.assert_allclose(image_side(4, P), 0.045084220027780106, rtol=5e-15)
    np.testing.assert_allclose(image_side(5, P), 0.01941671670498787, rtol=5e-15)
    np.testing.assert_allclose(
        image_side(3, ConstructionParams(0.45, 1.0)), 0.11925807275000018, rtol=5e-15
    )
    assert preimage_side(5, P) == 0.45**5
    with pytest.raises(ValueError):
        preimage_side(2, P)
    with pytest.raises(ValueError):
        image_side(2, P)


def test_side_ratios():
    for k in range(3, 30):
        np.testing.assert_allclose(
            preimage_side(k, P) / preimage_side(k + 1, P), 1.0 / P.sigma, rtol=1e-12
        )
        want = 2.0 * (math.log(k + 1) / math.log(k)) ** (P.beta / 2.0)
        np.testing.assert_allclose(image_side(k, P) / image_side(k + 1, P), want, rtol=1e-12)


def test_log_sides_match_linear():
    for k in range(3, 41):
        np.testing.assert_allclose(
            math.exp(log_image_side(k, P)), image_side(k, P), rtol=1e-12
        )


def test_log_log_ratio_stable():
    for k in range(4, 1000, 37):
        direct = math.log(math.log(k) / math.log(k - 1))
        # atol floor: the direct quotient form itself rounds at ~1 ulp
        np.testing.assert_allclose(log_log_ratio(k), direct, rtol=1e-12, atol=2e-16)
    # huge levels keep ~1/(k log k) precision instead of collapsing to 0
    v = log_log_ratio(10**9)
    assert 0.0 < v < 1e-9
    np.testing.assert_allclose(v, 1.0 / (1e9 * math.log(1e9)), rtol=1e-4)


def test_radii_values():
    rad = radii(3, P)
    assert rad.R == 1.0 / 16.0 and rad.R_img == 1.0 / 16.0
    assert rad.r == 0.45**3 / 2.0
    np.testing.assert_allclose(rad.r_img, 0.11377990332835468 / 2.0, rtol=5e-15)

    rad = radii(3, ConstructionParams(0.25, 2.0))
    assert rad.r == 1.0 / 128.0

    rad4 = radii(4, P)
    assert rad4.R == 0.45**3 / 4.0
    np.testing.assert_allclose(rad4.r_img, 0.045084220027780106 / 2.0, rtol=5e-15)
    np.testing.assert_allclose(rad4.R_img, 0.11377990332835468 / 4.0, rtol=5e-15)

    lit = radii(4, P, literal=True)
    assert lit.r_img == 4.0 * rad4.r_img
    assert lit.R_img == 4.0 * rad4.R_img
    with pytest.raises(ValueError):
        radii(2, P)


def test_log_log3_is_correctly_rounded():
    """LOG_LOG3 is log log 3 rounded to nearest; math.log(math.log(3.0))
    lies 6 ulp above it, from the rounding of log 3."""
    with localcontext() as ctx:
        ctx.prec = 60
        exact = Decimal(3).ln().ln()
    assert abs(Decimal(LOG_LOG3) - exact) <= Decimal(math.ulp(LOG_LOG3)) / 2
    assert math.log(math.log(3.0)) - LOG_LOG3 == 6 * math.ulp(LOG_LOG3)


@settings(max_examples=200)
@given(
    sigma=st.one_of(
        st.floats(1e-3, 0.5, exclude_max=True), st.floats(-15.0, -3.0).map(lambda e: 0.5 - 10.0**e)
    ),
    beta=st.floats(0.1, 10.0),
    k=st.integers(3, 60),
)
@example(sigma=0.5 - 1e-12, beta=2.0, k=3)
def test_frame_shape_describes_the_radii(sigma, beta, k):
    """log P and log P' are the logs of 4 R and 4 R' from the double radii,
    rho and 1 - rho lie within 2 ulp of the exact
    r / R and 1 - r / R of the exact parameters, and h within 1 ulp of
    -log(r' / R') at level 3 and 4 ulp past it, where log_log_ratio rounds
    (the largest measured is 2.9 ulp)."""
    params = ConstructionParams(sigma, beta)
    shape, rad = frame_shape(k, params), radii(k, params)
    np.testing.assert_allclose(shape.log_P, math.log(4.0 * rad.R), rtol=4e-16)
    np.testing.assert_allclose(shape.log_P_img, math.log(4.0 * rad.R_img), rtol=4e-16)
    s = Fraction(sigma)
    rho = 8 * s**3 if k == MIN_LEVEL else 2 * s
    assert abs(Fraction(shape.rho) - rho) <= 2 * Fraction(math.ulp(shape.rho))
    assert abs(Fraction(shape.one_minus_rho) - (1 - rho)) <= 2 * Fraction(math.ulp(shape.one_minus_rho))
    with localcontext() as ctx:
        ctx.prec = 60
        ratio = Decimal(k).ln().ln() - (0 if k == MIN_LEVEL else Decimal(k - 1).ln().ln())
        h = Decimal(beta) / 2 * ratio
    assert abs(Decimal(shape.h) - h) <= (1 if k == MIN_LEVEL else 4) * Decimal(math.ulp(shape.h))


def test_level3_squares():
    sq = preimage_square(CellAddress((0, 0)), P)
    assert sq.center == (1.0 / 16.0, 1.0 / 16.0)
    assert sq.side == 0.45**3
    isq = image_square(CellAddress((7, 2)), P)
    assert isq.center == (15.0 / 16.0, 5.0 / 16.0)


def test_child_center_offsets():
    parent = CellAddress((5, 1))
    child = CellAddress((5, 1), ((1,), (0,)))
    sq_p = image_square(parent, P)
    sq_c = image_square(child, P)
    l3 = image_side(3, P)
    np.testing.assert_allclose(sq_c.center[0] - sq_p.center[0], l3 / 4.0, rtol=5e-15)
    np.testing.assert_allclose(sq_c.center[1] - sq_p.center[1], -l3 / 4.0, rtol=5e-15)
    pre_p = preimage_square(parent, P)
    pre_c = preimage_square(child, P)
    np.testing.assert_allclose(pre_c.center[0] - pre_p.center[0], 0.45**3 / 4.0, rtol=5e-15)


def test_address_validation_and_paths():
    with pytest.raises(ValueError):
        CellAddress((8, 0))
    with pytest.raises(ValueError):
        CellAddress((0, 0), ((0,), ()))
    with pytest.raises(ValueError):
        CellAddress((0, 0), ((2,), (0,)))
    addr = CellAddress((5, 3), ((0, 1, 1), (1, 0, 0)))
    assert addr.level == 6
    assert addr.axis_path(0) == "5011"
    assert addr.axis_path(1) == "3100"
    assert CellAddress.from_axis_paths("5011", "3100") == addr
    with pytest.raises(ValueError):
        CellAddress.from_axis_paths("8011", "3100")
    with pytest.raises(ValueError):
        CellAddress.from_axis_paths("502", "310")


def test_enumerate_counts_and_order():
    cells3 = list(enumerate_cells(3, P))
    assert len(cells3) == 64
    assert cells3[0] == CellAddress((0, 0))
    assert cells3[1] == CellAddress((0, 1))
    assert cells3[64 - 1] == CellAddress((7, 7))
    assert cells3[8] == CellAddress((1, 0))

    cells4 = list(enumerate_cells(4, P))
    assert len(cells4) == 256
    # bits iterate lexicographically inside each octant pair
    assert cells4[0].refinements == ((0,), (0,))
    assert cells4[1].refinements == ((0,), (1,))
    assert cells4[2].refinements == ((1,), (0,))

    assert len(list(enumerate_cells(5, P))) == 1024


def test_enumerate_cap():
    with pytest.raises(EnumerationCapError):
        next(iter(enumerate_cells(13, P)))
    with pytest.raises(EnumerationCapError) as err:
        next(iter(enumerate_cells(4, P, cap=255)))
    assert "cap" in str(err.value)
    # level 12 is exactly at the default cap
    it = enumerate_cells(12, P)
    assert next(iter(it)).level == 12


@pytest.mark.parametrize("sigma,beta", [(0.30, 1.0), (0.45, 2.0), (0.49, 2.0), (0.499, 0.5)])
def test_validate_geometry_clean(sigma, beta):
    report = validate_geometry(8, ConstructionParams(sigma, beta))
    assert report.passed, report.violations[:5]
    # per family and level: one check per axis interval and the gap check
    assert report.checks_run == 2 * sum(8 * 2 ** (k - 3) + 1 for k in range(3, 9)) == 1020


@settings(max_examples=300)
@given(
    sigma=st.one_of(
        st.floats(1e-3, 0.5, exclude_max=True),
        st.sampled_from([1 / 16, 1 / 8, 1 / 4, 3 / 8, 0.5 - 2.0**-54]),
    ),
    beta=st.one_of(st.floats(1e-12, 1e3), st.sampled_from([1e-12, 1e-6, 1e3])),
)
@example(sigma=0.5 - 2.0**-54, beta=1e-12)
@example(sigma=1e-3, beta=1e3)
def test_sides_are_at_most_twice_the_outer_radii(sigma, beta):
    """side_k <= 2 R_k as doubles in both families at every resolvable
    level: a square lies inside its frame, so validate_geometry's frame
    check, least gap >= 2R - tol, implies that the squares are disjoint."""
    params = ConstructionParams(sigma, beta)
    for k in range(MIN_LEVEL, resolvable_depth(params) + 1):
        rad = radii(k, params)
        assert preimage_side(k, params) <= 2.0 * rad.R, k
        assert image_side(k, params) <= 2.0 * rad.R_img, k


# (sigma, beta): resolvable depth; 2 where not even level 3 resolves, and
# 45 at most, as 2^(51 - k) > k fails past it
RESOLVABLE_DEPTHS = {
    (0.45, 2.0): 39, (0.3, 2.0): 26, (0.25, 2.0): 23, (0.1, 2.0): 14, (0.01, 2.0): 7,
    (0.49, 1.0): 44, (0.45, 50.0): 13, (1e-6, 2.0): 2, (0.25, 900.0): 2,
    (0.49999999999999994, 2.0): 43, (0.49999999999999994, 1e-3): 45,
}


@pytest.mark.parametrize("sigma, beta", sorted(RESOLVABLE_DEPTHS))
def test_resolvable_depth_is_the_deepest_depth_whose_steps_exceed_k_u(sigma, beta):
    """Depth d is resolvable when every level k in 3..d has both center
    steps sigma^k / 4 and l_k / 4 above k u, u = 2^-53."""
    params = ConstructionParams(sigma, beta)
    depth = resolvable_depth(params)
    assert depth == RESOLVABLE_DEPTHS[sigma, beta]

    def steps_exceed_k_u(k):
        return min(preimage_side(k, params), image_side(k, params)) / 4.0 > k * 2.0**-53

    assert all(steps_exceed_k_u(k) for k in range(MIN_LEVEL, depth + 1))
    assert not steps_exceed_k_u(depth + 1)


def test_depth_max_enforced():
    shallow = ConstructionParams(0.45, 2.0, depth_max=5)
    with pytest.raises(ValueError):
        preimage_square(CellAddress((0, 0), ((0, 0, 0), (0, 0, 0))), shallow)
    with pytest.raises(ValueError):
        list(enumerate_cells(6, shallow))


def reference_axis_paths(k):
    """(octant, refinement bits) of every level-k axis interval, in order."""
    nbits = k - MIN_LEVEL
    for octant in range(8):
        for m in range(1 << nbits):
            yield octant, _bits(m, nbits)


@settings(max_examples=60)
@given(
    sigma=st.one_of(st.floats(0.01, 0.49), st.sampled_from([1 / 16, 1 / 8, 1 / 4, 3 / 8])),
    beta=st.floats(0.1, 8.0),
    k=st.integers(3, 12),
)
@example(sigma=1 / 16, beta=2.0, k=11)  # the resolvable depth at this sigma
@example(sigma=3 / 8, beta=1.0, k=12)
@example(sigma=0.49, beta=8.0, k=3)
def test_axis_centers_equal_axis_center_bit_for_bit(sigma, beta, k):
    params = ConstructionParams(sigma, beta)
    if k > resolvable_depth(params):
        with pytest.raises(ValueError, match=f"level-{k} is past what doubles resolve"):
            axis_centers(k, params, False)
        return
    order = list(reference_axis_paths(k))
    for image in (False, True):
        centers, paths = axis_centers(k, params, image)
        assert centers.dtype == np.float64 and centers.shape == (8 << (k - MIN_LEVEL),)
        assert paths == [str(o) + "".join(map(str, bits)) for o, bits in order]
        want = [_axis_center(o, bits, params, image) for o, bits in order]
        assert centers.tolist() == want


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_cell_axis_indices_follow_enumerate_cells(k):
    i0, i1 = cell_axis_indices(k, P)
    _, paths = axis_centers(k, P, image=False)
    got = [(paths[a], paths[b]) for a, b in zip(i0.tolist(), i1.tolist())]
    assert got == [(c.axis_path(0), c.axis_path(1)) for c in enumerate_cells(k, P)]


@pytest.mark.parametrize(
    "k,params,cap",
    [
        (13, P, DEFAULT_CELL_CAP),
        (4, P, 255),
        (2, P, DEFAULT_CELL_CAP),
        (6, ConstructionParams(0.45, 2.0, depth_max=5), DEFAULT_CELL_CAP),
    ],
)
def test_cell_axis_indices_share_the_enumeration_checks(k, params, cap):
    with pytest.raises(ValueError) as want:
        next(iter(enumerate_cells(k, params, cap=cap)))
    with pytest.raises(ValueError) as got:
        cell_axis_indices(k, params, cap=cap)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def reference_validate_geometry(k_max, params, tol=1e-12):
    """validate_geometry as a loop over every axis path, as a reference.

    Each interval's center and its parent's come from _axis_center, one
    path at a time; the array version must report the same checks_run
    and the same violations in the same order.  The frame check reads
    the least entry of the full sup-norm distance matrix at levels up to
    5 and the least sorted axis gap above, the same double
    (test_pairwise_minimum_is_the_smallest_axis_gap).
    """
    report = ValidationReport(k_max)
    for image in (False, True):
        fam = "image" if image else "pre"
        side_fn = image_side if image else preimage_side
        for k in range(MIN_LEVEL, k_max + 1):
            side = side_fn(k, params)
            rad = radii(k, params)
            R = rad.R_img if image else rad.R
            centers = []
            for octant, bits in reference_axis_paths(k):
                c = _axis_center(octant, bits, params, image)
                centers.append(c)
                where = f"{fam}:" + str(octant) + "".join(map(str, bits))
                report.checks_run += 1
                if k == MIN_LEVEL:
                    if not (octant / 8.0 < c - side / 2.0 and c + side / 2.0 < (octant + 1) / 8.0):
                        report.violations.append(
                            (k, where, "level-3 interval not strictly inside its grid cell")
                        )
                else:
                    parent_c = _axis_center(octant, bits[:-1], params, image)
                    parent_side = side_fn(k - 1, params)
                    if bits[-1]:
                        lo, hi = parent_c, parent_c + parent_side / 2.0
                    else:
                        lo, hi = parent_c - parent_side / 2.0, parent_c
                    if not (lo < c - side / 2.0 and c + side / 2.0 < hi):
                        report.violations.append(
                            (k, where, "child interval not strictly inside parent half")
                        )
            centers.sort()
            if k <= 5:
                cs = np.array(centers)
                cx, cy = np.repeat(cs, len(cs)), np.tile(cs, len(cs))
                dist = np.maximum(
                    np.abs(cx[:, None] - cx[None, :]), np.abs(cy[:, None] - cy[None, :])
                )
                np.fill_diagonal(dist, np.inf)
                least = dist.min()
            else:
                least = min(b - a for a, b in zip(centers, centers[1:]))
            report.checks_run += 1
            if least < 2.0 * R - tol:
                report.violations.append((k, fam, "sibling frames overlap along an axis"))
    return report


@pytest.mark.parametrize("tol", [1e-12, -1.0])
@pytest.mark.parametrize(
    "sigma,beta",
    # the last sigma is the double just below 1/2: children nearly fill
    # their parent halves and rounding pushes some of them out
    [(0.45, 2.0), (0.30, 1.0), (0.0625, 0.5), (0.49999999999999994, 2.0)],
)
def test_validate_geometry_matches_reference_loop(sigma, beta, tol):
    params = ConstructionParams(sigma, beta)
    for k_max in (3, 4, 7):
        got = validate_geometry(k_max, params, tol=tol)
        want = reference_validate_geometry(k_max, params, tol=tol)
        assert (got.k_max, got.checks_run, got.violations) == (
            want.k_max, want.checks_run, want.violations
        )
    if tol < 0.0:
        # the gap check reads tol, so it fails at every (family, level)
        gap_failures = {v for v in got.violations if v[1] in ("pre", "image")}
        assert gap_failures == {
            (k, fam, "sibling frames overlap along an axis")
            for k in range(MIN_LEVEL, 8)
            for fam in ("pre", "image")
        }
    elif sigma == 0.49999999999999994:
        assert {v[2] for v in got.violations} == {
            "level-3 interval not strictly inside its grid cell",
            "child interval not strictly inside parent half",
        }
    else:
        assert got.passed


GRID_SIGMAS = [1 / 16, 0.1, 0.25, 3 / 8, 0.45, 0.49999999999999994]
GRID_BETAS = [0.5, 1.0, 2.0, 5.0]


def brute_pairwise_min(c):
    """Least entry off the diagonal of the n^2 x n^2 sup-norm distance
    matrix between the centers C x C, built one row block at a time.

    Entry ((i, j), (k, l)) is max(|c_i - c_k|, |c_j - c_l|), the same
    double the full matrix of reference_validate_geometry holds.
    """
    n = len(c)
    d = np.abs(c[:, None] - c[None, :])
    best = np.inf
    for i in range(n):
        dist = np.maximum(d[i][None, :, None], d[:, None, :])
        dist[np.arange(n), i, np.arange(n)] = np.inf  # the pair ((i, j), (i, j))
        best = min(best, dist.min())
    return best


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("sigma", GRID_SIGMAS)
def test_pairwise_minimum_is_the_smallest_axis_gap(sigma, k):
    for beta in GRID_BETAS:
        params = ConstructionParams(sigma, beta)
        for image in (False, True):
            c, _ = axis_centers(k, params, image)
            brute = brute_pairwise_min(c)
            gap = np.diff(np.sort(c)).min()
            assert brute.tobytes() == gap.tobytes(), (beta, image, brute, gap)


@pytest.mark.parametrize("tol", [1e-12, 0.0, 0.3, -1e-3, -1.0])
def test_validate_geometry_2d_checks_match_the_matrix(tol):
    messages = set()
    # one beta per sigma keeps the reference's matrices affordable; the
    # test above covers every (sigma, beta) pair at levels 3-6
    for sigma, beta in zip(GRID_SIGMAS, GRID_BETAS * 2):
        params = ConstructionParams(sigma, beta)
        got = validate_geometry(5, params, tol)
        want = reference_validate_geometry(5, params, tol)
        assert (got.k_max, got.checks_run, got.violations) == (
            want.k_max, want.checks_run, want.violations
        )
        messages |= {v[2] for v in got.violations}
    if tol == -1e-3:
        assert "sibling frames overlap along an axis" in messages
