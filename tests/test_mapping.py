import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from frame_oracle import exact_least_frame_jacobian, exact_walk
from gain_oracle import exact_sup_distortion

from cantormap.construction import (
    MIN_LEVEL,
    CellAddress,
    ConstructionParams,
    frame_shape,
    image_side,
    image_square,
    preimage_side,
    preimage_square,
    radii,
    resolvable_depth,
)
from cantormap.mapping import (
    _BLOCK,
    FrameAt,
    SquareInteriorAt,
    _descend,
    _descend_block,
    _level_table,
    coeffs,
    consistency_check,
    evaluate,
    evaluate_batch,
    fields,
    fields_batch,
    locate,
    similarity_ratio,
    sup_distortion,
)

P = ConstructionParams(0.45, 2.0)
# sigma = 1/4 makes every pre-image coordinate dyadic, handy for exact cases
P4 = ConstructionParams(0.25, 2.0)

L3 = 0.11377990332835468
L5 = 0.01941671670498787


def test_coeffs_solve_boundary_conditions():
    """t rho = r' + a (rho - r), r' at rho = r by its form, is R' at rho = R."""
    for k in range(3, 13):
        a = coeffs(k, P)
        rad = radii(k, P)
        np.testing.assert_allclose(rad.r_img + a * (rad.R - rad.r), rad.R_img, rtol=1e-13)
        assert a > 0.0


def test_coeffs_underflow_is_a_domain_error():
    # at sigma = 0.25, beta = 900 the least frame Jacobian a min(r'/r, R'/R)
    # is subnormal from level 10 (1.5e-311); at level 12 a frame point's
    # Jacobian read 0.0 beside a derivative norm of 4.9e-168
    steep = ConstructionParams(0.25, 900.0)
    assert coeffs(9, steep) > 0.0
    with pytest.raises(ValueError, match="level-10 frame is degenerate .* sigma=0.25, beta=900.0"):
        coeffs(10, steep)
    # at sigma = 1e-6 the level-54 inner radius sigma^54 / 2 rounds to 0.0
    tiny = ConstructionParams(1e-6, 2.0)
    assert coeffs(53, tiny) > 0.0
    with pytest.raises(ValueError, match="level-54 frame is degenerate .* sigma=1e-06"):
        coeffs(54, tiny)
    # the map refuses every depth at both: no level-3 step sigma^3 / 4 or
    # l_3 / 4 exceeds 3 u
    for params in (steep, tiny):
        with pytest.raises(ValueError, match="level-3 is past what doubles resolve"):
            fields_batch([[0.3, 0.3]], 3, params)


def test_literal_coeffs_are_four_times_corrected():
    # the literal image radii are four times the corrected ones, and the
    # factor 4 is exact in binary, so the slope is exactly four times too
    for k in (4, 7):
        assert coeffs(k, P, literal=True) == 4.0 * coeffs(k, P)


def test_frame_map_boundary_and_direction():
    """On |x-q|_inf = r the map lands on |y-q'|_inf = r', same for R."""
    addr = CellAddress((3, 4), ((1,), (0,)))
    q = preimage_square(addr, P).center
    qi = image_square(addr, P).center
    rad = radii(addr.level, P)

    def frame_image(x):
        fs = fields(x, 6, P)
        assert (fs.level, fs.in_frame) == (addr.level, True)
        return fs.image

    inner = (q[0] + rad.r, q[1] + 0.3 * rad.r)
    y = frame_image(inner)
    np.testing.assert_allclose(
        max(abs(y[0] - qi[0]), abs(y[1] - qi[1])), rad.r_img, rtol=1e-12
    )
    outer = (q[0] - rad.R, q[1] + 0.6 * rad.R)
    y = frame_image(outer)
    np.testing.assert_allclose(
        max(abs(y[0] - qi[0]), abs(y[1] - qi[1])), rad.R_img, rtol=1e-12
    )

    # radial rays are preserved: image offsets are a positive multiple
    # (rho = 0.95 R lies in the frame, where r = 2 sigma R = 0.9 R)
    x = (q[0] + 0.95 * rad.R, q[1] - 0.5 * rad.R)
    y = frame_image(x)
    lam0 = (y[0] - qi[0]) / (x[0] - q[0])
    lam1 = (y[1] - qi[1]) / (x[1] - q[1])
    np.testing.assert_allclose(lam0, lam1, rtol=1e-13)
    assert lam0 > 0.0


def test_degenerate_levels_are_domain_errors():
    # l_3 = 1/8 (log 3)^(-5e-301) rounds to 1/8, so R' - r' = 1/16 - l_3/2 is 0
    flat = ConstructionParams(0.1, 1e-300)
    assert radii(3, flat).R_img == radii(3, flat).r_img
    with pytest.raises(ValueError, match="level-3 frame is degenerate"):
        coeffs(3, flat)
    # r'/r ~ 6e-62, where a + b/r cancels, is kept: the slope matches its exact
    # value from the double radii, and the frame sup a / (r'/r) ~ 3e62 the one
    # from the exact parameters, to the 6 (1 + h) u of
    # test_sup_distortion_matches_exact_radii (h = 141 here)
    steep = ConstructionParams(0.49, 3000.0)
    rad = radii(3, steep)
    slope = (Fraction(rad.R_img) - Fraction(rad.r_img)) / (Fraction(rad.R) - Fraction(rad.r))
    a = coeffs(3, steep)
    assert abs(Fraction(a) - slope) <= Fraction(math.ulp(a)) / 2
    sup = exact_sup_distortion(3, steep.sigma, steep.beta)
    h = frame_shape(3, steep).h
    assert abs(Decimal(sup_distortion(3, steep)) / sup - 1) <= Decimal(6 * (1 + h) * 2.0**-53)
    # the level-3 image side underflows, so r' = 0 and no depth is resolvable
    with pytest.raises(ValueError, match="level-3 frame is degenerate"):
        coeffs(3, ConstructionParams(0.1, 1e6))
    with pytest.raises(ValueError, match="level-3 is past what doubles resolve"):
        fields_batch([[0.3, 0.3]], 3, ConstructionParams(0.1, 1e6))
    with pytest.raises(ValueError, match="level-4 sup distortion overflows"):
        sup_distortion(4, ConstructionParams(0.1, 1e6))
    # r = sigma^3 / 2 underflows to 0
    with pytest.raises(ValueError, match="level-3 sup distortion overflows"):
        sup_distortion(3, ConstructionParams(1e-300, 2.0))


def test_centers_map_to_image_centers():
    for addr in (
        CellAddress((0, 0)),
        CellAddress((7, 2)),
        CellAddress((3, 4), ((1,), (0,))),
        CellAddress((5, 1), ((0, 1, 1), (1, 0, 0))),
    ):
        q = preimage_square(addr, P).center
        qi = image_square(addr, P).center
        assert evaluate(q, addr.level, P) == qi


def test_level3_gridlines_are_fixed():
    ys = np.linspace(0.0, 1.0, 97)
    lines = []
    for i in range(9):
        g = i / 8.0
        lines.append(np.column_stack([np.full_like(ys, g), ys]))
        lines.append(np.column_stack([ys, np.full_like(ys, g)]))
    pts = np.vstack(lines)
    img = evaluate_batch(pts, 6, P)
    assert np.max(np.abs(img - pts)) <= 1e-15


def test_locate_conventions():
    # the unit-square midpoint sits on a level-3 outer frame boundary
    loc = locate((0.5, 0.5), 6, P)
    assert isinstance(loc, FrameAt)
    assert loc.address.level == 3
    assert loc.rho == 1.0 / 16.0

    # strictly inside every square down to the cutoff depth
    center = preimage_square(CellAddress((2, 6), ((1, 0), (0, 1))), P).center
    loc = locate(center, 5, P)
    assert isinstance(loc, SquareInteriorAt)
    assert loc.address.level == 5
    assert loc.truncated

    with pytest.raises(ValueError):
        locate((1.2, 0.5), 5, P)
    with pytest.raises(ValueError):
        locate((0.5, -0.1), 5, P)
    with pytest.raises(ValueError):
        locate((0.5, 0.5), 2, P)
    with pytest.raises(ValueError):
        locate((0.5, 0.5), P.depth_max + 1, P)


def test_inner_boundary_belongs_to_frame():
    # sigma = 1/4: r_3 = 1/128 exactly, so the boundary point is exact
    x = (1.0 / 16.0 + 1.0 / 128.0, 1.0 / 16.0)
    loc = locate(x, 6, P4)
    assert isinstance(loc, FrameAt)
    assert loc.address.level == 3
    assert loc.rho == 1.0 / 128.0
    # one ulp inside, the walk continues past level 3
    x_in = (np.nextafter(x[0], 0.0), x[1])
    loc = locate(x_in, 6, P4)
    assert loc.address.level > 3


def test_depth_stability_for_frame_points():
    rng = np.random.default_rng(7)
    pts = rng.random((500, 2))
    shallow = [locate(tuple(p), 4, P) for p in pts]
    frame_pts = [tuple(p) for p, loc in zip(pts, shallow) if isinstance(loc, FrameAt)]
    assert len(frame_pts) > 100
    for x in frame_pts[:150]:
        y4 = evaluate(x, 4, P)
        assert evaluate(x, 6, P) == y4
        assert evaluate(x, 9, P) == y4


def test_scalar_and_batch_agree():
    rng = np.random.default_rng(11)
    pts = rng.random((1000, 2))
    img = evaluate_batch(pts, 7, P)
    fb = fields_batch(pts, 7, P)
    for i, p in enumerate(pts):
        x = (float(p[0]), float(p[1]))
        y = evaluate(x, 7, P)
        assert img[i, 0] == y[0] and img[i, 1] == y[1]
        fs = fields(x, 7, P)
        assert fb["level"][i] == fs.level
        assert bool(fb["in_frame"][i]) == fs.in_frame
        assert fb["derivative_norm"][i] == fs.derivative_norm
        assert fb["jacobian"][i] == fs.jacobian
        assert fb["distortion"][i] == fs.distortion
        assert bool(fb["on_skeleton"][i]) == fs.on_skeleton


def _cell_centers(rng, n, k, params):
    """Seeded level-k pre-image centers, reached with the descent's own float steps."""
    c = (rng.integers(0, 8, (n, 2)) + 0.5) / 8.0
    for j in range(MIN_LEVEL, k):
        c += np.where(rng.integers(0, 2, (n, 2)) == 1, 1.0, -1.0) * (preimage_side(j, params) / 4.0)
    return c


def _cell_points(rng, n, k, params):
    """Points at seeded level-k pre-image centers moved along one axis
    by 0, +-r_k or +-R_k: exact centers tie between cells, the offsets
    sit on frame boundaries up to rounding."""
    pts = _cell_centers(rng, n, k, params)
    rad = radii(k, params)
    offsets = np.array([0.0, rad.r, -rad.r, rad.R, -rad.R])
    pts[np.arange(n), rng.integers(0, 2, n)] += offsets[rng.integers(0, 5, n)]
    return np.clip(pts, 0.0, 1.0)


@st.composite
def _point_sets(draw):
    """(params, depth, points): uniform points, or points snapped to
    multiples of 1/16 or of a level-k half-side, or cell-center points.
    Dyadic sigmas make centers and radii exact, so frame-boundary
    points sit on the boundary exactly."""
    sigma = st.one_of(st.floats(0.05, 0.49), st.sampled_from([0.0625, 0.125, 0.25, 0.375]))
    params = ConstructionParams(draw(sigma), 2.0)
    depth = draw(st.integers(3, resolvable_depth(params)))
    k = draw(st.integers(3, depth))
    unit = st.floats(0.0, 1.0)
    pts = np.array(draw(st.lists(st.tuples(unit, unit), max_size=48)), dtype=float).reshape(-1, 2)
    kind = draw(st.sampled_from(["uniform", "sixteenths", "half_sides", "cells"]))
    if kind == "sixteenths":
        pts = np.round(pts * 16.0) / 16.0
    elif kind == "half_sides":
        half = preimage_side(k, params) / 2.0
        pts = np.minimum(np.round(pts / half) * half, 1.0)
    elif kind == "cells":
        pts = _cell_points(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), len(pts), k, params)
    return params, depth, pts


# every point lies on a level-3 outer frame boundary, so all leave at level 3
_LEVEL3_EXITS = np.array([[i / 16.0, j / 16.0] for i in range(17) for j in range(0, 17, 4)])


@settings(max_examples=150)
@given(_point_sets())
@example((P, 6, np.empty((0, 2))))
@example((P, resolvable_depth(P), _LEVEL3_EXITS))
def test_scalar_and_batch_agree_bit_for_bit(case):
    params, depth, pts = case
    img = evaluate_batch(pts, depth, params)
    fb = fields_batch(pts, depth, params)
    assert img.shape == fb["image"].shape == (len(pts), 2)
    assert all(fb[key].shape == (len(pts),) for key in fb if key != "image")
    if pts is _LEVEL3_EXITS:
        assert np.all(fb["level"] == 3) and np.all(fb["in_frame"])
    for i, p in enumerate(pts):
        fs = fields(p, depth, params)
        assert evaluate(p, depth, params) == fs.image == (img[i, 0], img[i, 1])
        assert (fs.level, fs.in_frame, fs.derivative_norm, fs.jacobian, fs.distortion,
                fs.on_skeleton) == (fb["level"][i], fb["in_frame"][i], fb["derivative_norm"][i],
                                    fb["jacobian"][i], fb["distortion"][i], fb["on_skeleton"][i])
        loc = locate(p, depth, params)
        assert (loc.address.level, isinstance(loc, FrameAt)) == (fs.level, fs.in_frame)


@st.composite
def _extreme_cases(draw):
    """(params, depth, seed): sigma in [1e-6, 0.49] and beta in
    [1e-300, 1e6], each with a depth up to resolvable_depth(params), or 3
    where no depth is resolvable."""
    sigma = draw(st.one_of(st.floats(1e-6, 0.49), st.floats(-6.0, -1.0).map(lambda e: 10.0**e)))
    beta = draw(st.one_of(
        st.sampled_from([1e-300, 1e6]),
        st.floats(-300.0, 6.0).map(lambda e: 10.0**e),
        st.floats(1.0, 2e4),  # pre-asymptotic levels, where R r' < R' r
    ))
    params = ConstructionParams(sigma, beta)
    depth = draw(st.integers(MIN_LEVEL, max(MIN_LEVEL, resolvable_depth(params))))
    return params, depth, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300)
@given(_extreme_cases())
@example((ConstructionParams(0.1, 1e-300), 3, 0))
@example((ConstructionParams(0.1, 1e-14), 12, 0))
@example((ConstructionParams(0.1, 1e6), 3, 0))
@example((ConstructionParams(0.49, 3000.0), 3, 0))
@example((ConstructionParams(0.1, 2.0), 14, 0))  # the resolvable depth at this sigma
def test_fields_batch_is_finite_or_a_domain_error(case):
    """Extreme sigma, beta and depth give finite fields or ValueError,
    never inf, NaN or a numpy warning."""
    params, depth, seed = case
    rng = np.random.default_rng(seed)
    k = int(rng.integers(MIN_LEVEL, depth + 1))
    pts = np.vstack([rng.random((64, 2)), _cell_points(rng, 64, k, params)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            f = fields_batch(pts, depth, params)
        except ValueError:
            return
    for key in ("image", "derivative_norm", "jacobian", "distortion"):
        assert np.all(np.isfinite(f[key])), key


@st.composite
def _resolved_cases(draw):
    """(params, depth, seed): sigma in [1e-4, 0.49], dyadic values
    included, beta in [1e-3, 1e3], and a depth up to resolvable_depth."""
    sigma = draw(st.one_of(
        st.floats(0.01, 0.49), st.floats(-4.0, -2.0).map(lambda e: 10.0**e),
        st.sampled_from([1 / 16, 1 / 8, 1 / 4, 3 / 8, 0.49]),
    ))
    params = ConstructionParams(sigma, draw(st.floats(-3.0, 3.0).map(lambda e: 10.0**e)))
    assume(resolvable_depth(params) >= MIN_LEVEL)
    depth = draw(st.integers(MIN_LEVEL, resolvable_depth(params)))
    return params, depth, draw(st.integers(0, 2**32 - 1))


def _exact_cells(rng, n, depth, params):
    """n seeded triples (k, center, framed): the exact center of a level-k
    cell, k <= depth, and that center moved along one axis by
    r_k + f (R_k - r_k), f in [0.05, 0.95], into the cell's frame; points
    as pairs of Fractions."""
    s = Fraction(params.sigma)
    cells = []
    for _ in range(n):
        k = int(rng.integers(MIN_LEVEL, depth + 1))
        c = [(int(rng.integers(0, 8)) + Fraction(1, 2)) / 8 for _ in range(2)]
        for j in range(MIN_LEVEL, k):
            c = [ca + s**j / 4 * int(rng.choice([-1, 1])) for ca in c]
        r, R = s**k / 2, (Fraction(1, 16) if k == MIN_LEVEL else s ** (k - 1) / 4)
        f = Fraction(float(rng.uniform(0.05, 0.95)))
        moved = list(c)
        moved[int(rng.integers(0, 2))] += int(rng.choice([-1, 1])) * (r + f * (R - r))
        cells.append((k, c, moved))
    return cells


@settings(max_examples=300)
@given(_resolved_cases())
@example((P, resolvable_depth(P), 0))
@example((ConstructionParams(0.1, 2.0), 14, 1))
@example((ConstructionParams(0.49, 1.0), 44, 2))
@example((ConstructionParams(0.25, 2.0), 23, 3))
def test_fields_batch_locates_points_as_the_exact_walk(case):
    """Down to resolvable_depth, fields_batch gives every point the level
    and in_frame flag of the exact walk (frame_oracle.exact_walk), unless
    that walk passes within k u of a boundary it tests at some level k,
    where rounding decides; and every Jacobian is a normal double.  The
    points are uniform, exact cell centers, and exact frame points."""
    params, depth, seed = case
    rng = np.random.default_rng(seed)
    exact = [p for _, c, moved in _exact_cells(rng, 16, depth, params) for p in (c, moved)]
    pts = np.vstack([rng.random((32, 2)), np.clip(np.array(exact, dtype=float), 0.0, 1.0)])
    f = fields_batch(pts, depth, params)
    assert np.all(f["jacobian"] >= 2.0**-1022)
    clear = 0
    for p, level, in_frame in zip(pts.tolist(), f["level"].tolist(), f["in_frame"].tolist()):
        want_level, want_in_frame, margin_clear = exact_walk(*p, depth, params.sigma)
        if margin_clear:
            assert (level, in_frame) == (want_level, want_in_frame), p
            clear += 1
    assert clear >= len(pts) // 2


@settings(max_examples=150)
@given(_resolved_cases())
@example((P, resolvable_depth(P), 0))
@example((ConstructionParams(0.1, 2.0), 14, 1))
@example((ConstructionParams(0.49, 1.0), 44, 2))
@example((ConstructionParams(0.45, 50.0), 13, 3))
def test_map_is_monotone_along_axis_lines(case):
    """The map is a homeomorphism that keeps each axis's order: fx does
    not decrease along a horizontal line, nor fy along a vertical one, by
    more than the 2 ulp of the output that rounding t = (r' + a (rho - r)) / rho
    and t (x - c) can cost where rho moves with x.  Between consecutive
    points, where the least local scale (jacobian / derivative_norm, that
    is min(a, t) on a frame and the similarity scale in a square) at
    either point times the input step exceeds 4 ulp of the output, the
    image coordinate strictly increases.  Half of each line's points are
    uniform on [0, 1], half crowd an exact level-k cell center, k <= depth."""
    params, depth, seed = case
    rng = np.random.default_rng(seed)
    for axis in (0, 1):
        for k, c, _ in _exact_cells(rng, 4, depth, params):
            R = radii(k, params).R
            along = np.unique(np.clip(np.concatenate([
                rng.random(400), float(c[axis]) + R * rng.uniform(-1.5, 1.5, 400)]), 0.0, 1.0))
            across = np.full_like(along, np.clip(float(c[1 - axis]) + R * rng.uniform(-1.0, 1.0), 0.0, 1.0))
            pts = np.column_stack([along, across] if axis == 0 else [across, along])
            fb = fields_batch(pts, depth, params)
            image = fb["image"][:, axis]
            rise = np.diff(image)
            ulp = np.spacing(np.maximum(np.abs(image[:-1]), np.abs(image[1:])))
            assert np.all(rise >= -2.0 * ulp)
            scale = fb["jacobian"] / fb["derivative_norm"]
            resolved = np.minimum(scale[:-1], scale[1:]) * np.diff(along) > 4.0 * ulp
            assert np.all(rise[resolved] > 0.0)


@pytest.mark.parametrize("depth", [6, 32, resolvable_depth(P)])
def test_evaluate_batch_is_the_fields_image(depth):
    rng = np.random.default_rng(depth)
    pts = np.vstack([rng.random((3000, 2)), _cell_points(rng, 3000, depth, P)])
    assert np.array_equal(evaluate_batch(pts, depth, P), fields_batch(pts, depth, P)["image"])


def reference_descend_batch(points, depth, params):
    """The whole-array compacting walk that preceded the blocked kernel,
    kept as the reference _descend_batch must match bit for bit."""
    pts = np.asarray(points, dtype=float)
    tab = _level_table(params, depth)
    x = [pts[:, 0], pts[:, 1]]
    centers = [(np.minimum((xa * 8.0).astype(np.int64), 7) + 0.5) / 8.0 for xa in x + x]
    level = np.empty(len(pts), dtype=np.int64)
    in_frame = np.empty(len(pts), dtype=bool)
    rho_out = np.empty(len(pts))
    idx, ax, ac = None, x, list(centers)
    for k in range(MIN_LEVEL, depth + 1):
        d = [ax[0] - ac[0], ax[1] - ac[1]]
        rho = np.maximum(np.abs(d[0]), np.abs(d[1]), out=rho_out if idx is None else None)
        hit = rho >= tab.r[k]
        leave = hit if k < depth else np.ones_like(hit)
        if leave.any():
            stay = ~leave
            if idx is None:
                gone, idx = np.flatnonzero(leave), np.flatnonzero(stay)
            else:
                gone = idx[leave]
                rho_out[gone] = rho[leave]
                for out, a in zip(centers, ac):
                    out[gone] = a[leave]
                idx = idx[stay]
            level[gone] = k
            in_frame[gone] = hit[leave]
            if len(idx) == 0:
                break
            ax, ac = [a[stay] for a in ax], [a[stay] for a in ac]
            d = [ax[0] - ac[0], ax[1] - ac[1]]
        for a, da, s in zip(ac, d + d, (tab.step[k],) * 2 + (tab.istep[k],) * 2):
            a += np.copysign(s, da)
    return tab, x, level, in_frame, rho_out, centers


def _depth_points(rng, n, depth, params):
    """Points within 0.9 of the half-side around seeded level-depth
    centers, as perfbench's cantor_points builds them: they descend to
    depth and land in no frame."""
    half = preimage_side(depth, params) / 2.0
    return _cell_centers(rng, n, depth, params) + rng.uniform(-0.9, 0.9, (n, 2)) * half


def _block_edge_mix(rng, n, depth, params):
    """Points leaving at level 3, at a middle level and at depth, in a
    period-3 pattern, so each kind sits on both sides of every block edge."""
    mid = (MIN_LEVEL + depth) // 2
    rad = radii(mid, params)
    level3 = rng.integers(0, 9, (n, 2)) / 8.0  # level-3 grid points: outer frame corners
    frame_mid = _cell_centers(rng, n, mid, params)
    frame_mid[:, 0] += np.where(rng.integers(0, 2, n) == 1, 1.0, -1.0) * (rad.r + rad.R) / 2.0
    deep = _depth_points(rng, n, depth, params)
    kind = np.arange(n) % 3
    return np.where((kind == 0)[:, None], level3, np.where((kind == 1)[:, None], frame_mid, deep))


def _block_edge_points(kind, depth):
    """2 * _BLOCK + 17 seeded points of one kind: uniform, inside
    depth-level squares, or the period-3 mix, whose three exit levels
    are checked to sit on both sides of each block edge."""
    rng = np.random.default_rng([depth, len(kind)])
    n_max = 2 * _BLOCK + 17
    if kind == "uniform":
        return rng.random((n_max, 2))
    if kind == "cantor":
        return _depth_points(rng, n_max, depth, P)
    pts = _block_edge_mix(rng, n_max, depth, P)
    levels = reference_descend_batch(pts, depth, P)[2]
    mid = (MIN_LEVEL + depth) // 2
    for edge in (_BLOCK, 2 * _BLOCK):
        for side in (levels[edge - 6 : edge], levels[edge : edge + 6]):
            assert {3, mid, depth} <= set(side.tolist())
    return pts


_BLOCK_EDGE_SIZES = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 17)


@pytest.mark.parametrize("depth", [6, 32, resolvable_depth(P)])
@pytest.mark.parametrize("kind", ["uniform", "cantor", "mix"])
def test_blocked_descent_matches_the_whole_array_walk(kind, depth):
    pts = _block_edge_points(kind, depth)
    tab = _level_table(P, depth)
    for n in _BLOCK_EDGE_SIZES:
        level, in_frame = np.empty(n, dtype=np.int64), np.empty(n, dtype=bool)
        rho, centers = _descend_block(pts[:n, 0], pts[:n, 1], depth, tab, level, in_frame)
        _, _, *want = reference_descend_batch(pts[:n], depth, P)
        for g, w in zip([level, in_frame, rho] + centers, want[:3] + want[3]):
            assert g.dtype == w.dtype and g.shape == w.shape == (n,)
            assert g.tobytes() == w.tobytes()


def reference_fields_batch(points, depth, params):
    """The whole-array image and field epilogue that preceded the
    blocked map, on the whole-array walk, kept as the reference
    evaluate_batch and fields_batch must match byte for byte."""
    tab, x, level, in_frame, rho, centers = reference_descend_batch(points, depth, params)
    (x0, x1), (c0, c1, ci0, ci1) = x, centers
    av, r = np.array(tab.a)[level], np.array(tab.r)[level]
    rr = np.where(in_frame, rho, 1.0)
    t = (np.array(tab.r_img)[level] + av * (rr - r)) / rr
    scale = np.where(in_frame, t, tab.s_sim)
    img = np.column_stack((ci0 + scale * (x0 - c0), ci1 + scale * (x1 - c1)))
    s_sim, R = tab.s_sim, np.array(tab.R)[level]
    return {
        "image": img,
        "level": level,
        "in_frame": in_frame,
        "derivative_norm": np.where(in_frame, np.maximum(av, t), s_sim),
        "jacobian": np.where(in_frame, av * t, s_sim * s_sim),
        "distortion": np.where(in_frame, np.maximum(t / av, av / t), 1.0),
        "on_skeleton": in_frame
        & ((np.abs(rho - r) <= 1e-12 * r) | (np.abs(rho - R) <= 1e-12 * R)),
    }


@pytest.mark.parametrize("depth", [6, 32, resolvable_depth(P)])
@pytest.mark.parametrize("kind", ["uniform", "cantor", "mix"])
def test_blocked_map_matches_the_whole_array_map(kind, depth):
    pts = _block_edge_points(kind, depth)
    for n in _BLOCK_EDGE_SIZES:
        want = reference_fields_batch(pts[:n], depth, P)
        got = fields_batch(pts[:n], depth, P)
        assert list(got) == list(want)
        pairs = [(got[key], want[key]) for key in want]
        for g, w in pairs + [(evaluate_batch(pts[:n], depth, P), want["image"])]:
            assert g.dtype == w.dtype and g.shape == w.shape and g.shape[0] == n
            assert g.tobytes() == w.tobytes()


def reference_descend(x0, x1, depth, params):
    """The scalar walk that tested rho = max(|d0|, |d1|) at every level,
    kept as the reference _descend must match in all eight items."""
    if not (0.0 <= x0 <= 1.0 and 0.0 <= x1 <= 1.0):
        raise ValueError(f"point ({x0}, {x1}) lies outside the unit square")
    tab = _level_table(params, depth)
    r, steps, isteps = tab.r, tab.step, tab.istep
    o0, o1 = min(int(x0 * 8.0), 7), min(int(x1 * 8.0), 7)
    c0 = ci0 = (o0 + 0.5) / 8.0
    c1 = ci1 = (o1 + 0.5) / 8.0
    p0 = p1 = 1
    for k in range(MIN_LEVEL, depth + 1):
        rho = max(abs(x0 - c0), abs(x1 - c1))
        in_frame = rho >= r[k]
        if in_frame or k == depth:
            break
        step, istep = steps[k], isteps[k]
        if x0 >= c0:
            c0 += step
            ci0 += istep
            p0 = 2 * p0 + 1
        else:
            c0 -= step
            ci0 -= istep
            p0 = 2 * p0
        if x1 >= c1:
            c1 += step
            ci1 += istep
            p1 = 2 * p1 + 1
        else:
            c1 -= step
            ci1 -= istep
            p1 = 2 * p1
    return tab, in_frame, k, rho, (o0, o1), (p0, p1), (c0, c1), (ci0, ci1)


# sigma = 1/4 puts the level-3 frame test's bounds c +- r_3 = c +- 1/128
# on exact doubles: points on them and one ulp to either side
_R3_EDGES = np.array(
    [
        [np.nextafter(1.0 / 16.0 + sign / 128.0, to), 1.0 / 16.0 + shift]
        for sign in (1.0, -1.0)
        for to in (0.0, 1.0 / 16.0 + sign / 128.0, 1.0)
        for shift in (0.0, 1.0 / 128.0, -1.0 / 128.0, 0.001)
    ]
)


@settings(max_examples=150)
@given(_point_sets())
@example((P4, 3, _R3_EDGES))
@example((P4, 6, _R3_EDGES))
@example((P, 3, _LEVEL3_EXITS))
@example((P, 3, np.random.default_rng(3).random((48, 2))))
def test_scalar_walk_matches_the_reference_walk(case):
    params, depth, pts = case
    for p in pts:
        x0, x1 = float(p[0]), float(p[1])
        got, want = _descend(x0, x1, depth, params), reference_descend(x0, x1, depth, params)
        assert got[0] is want[0]
        # repr spells every float exactly, so this is a bit-for-bit comparison
        assert repr(got[1:]) == repr(want[1:])


@pytest.mark.parametrize("depth", [27, 53, 54, 55, 60])
def test_every_entry_point_fails_on_the_same_underflowing_depths(depth):
    # at sigma = 1e-6 no depth is resolvable: the level-3 step sigma^3 / 4
    # = 2.5e-19 is below 3 u, so every entry point refuses every depth with
    # the gate's message, though (0.5, 0.5) would leave the walk at level 3
    tiny = ConstructionParams(1e-6, 2.0)
    x = (0.5, 0.5)
    calls = [
        lambda: fields(x, depth, tiny),
        lambda: evaluate(x, depth, tiny),
        lambda: locate(x, depth, tiny),
        lambda: fields_batch([x], depth, tiny),
        lambda: evaluate_batch([x], depth, tiny),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(ValueError, match="sigma=1e-06") as err:
            call()
        messages.add(str(err.value))
    assert len(messages) == 1
    assert messages.pop().startswith(f"level-{depth} is past what doubles resolve")


def test_field_identities():
    """|Df|_inf^2 = K J pointwise for the sup-norm operator norm."""
    rng = np.random.default_rng(23)
    pts = rng.random((4000, 2))
    fb = fields_batch(pts, 6, P)
    dn, jac, dist = fb["derivative_norm"], fb["jacobian"], fb["distortion"]
    np.testing.assert_allclose(dn * dn, dist * jac, rtol=5e-15)
    assert np.all(dist >= 1.0)
    assert np.all(jac > 0.0)
    interior = ~fb["in_frame"]
    assert np.all(dist[interior] == 1.0)
    assert np.all(fb["level"][interior] == 6)
    assert np.all(fb["level"][fb["in_frame"]] <= 6)


def test_skeleton_flags():
    on_inner = fields((1.0 / 16.0 + 1.0 / 128.0, 1.0 / 16.0), 6, P4)
    assert on_inner.on_skeleton
    on_outer = fields((0.5, 0.5), 6, P)
    assert on_outer.on_skeleton
    # rho = 0.05 sits strictly between r_3 = 0.0456 and R_3 = 0.0625
    generic = fields((1.0 / 16.0 + 0.05, 1.0 / 16.0 + 0.001), 6, P)
    assert generic.in_frame and generic.level == 3
    assert not generic.on_skeleton


_FRAME_SIGMAS = st.one_of(
    st.floats(1e-9, 0.5, exclude_max=True), st.sampled_from([0.0625, 0.125, 0.25, 0.375])
)


@st.composite
def _frame_levels(draw):
    """(params, k): sigma in [1e-9, 1/2), dyadic values included (below
    ~1e-52 the level-3 Jacobian overflows), beta in [1e-3, 1e3] and a
    level k in 3..20 whose side sigma^k is at least 2^-40, so that its
    frames hold doubles apart from their centers."""
    sigma = draw(_FRAME_SIGMAS)
    beta = draw(st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
    k_max = max(MIN_LEVEL, min(20, int(-40.0 * math.log(2.0) / math.log(sigma))))
    return ConstructionParams(sigma, beta), draw(st.integers(MIN_LEVEL, k_max))


def _within_ulps(got, exact, n):
    """|got - exact| <= n ulp, the ulp of a magnitude |exact| being at
    most 2^-52 |exact|, and 2^-1074 below the normal range."""
    return abs(Fraction(got) - exact) <= n * max(abs(exact) / 2**52, Fraction(1, 2**1074))


# levels where the scale written a + b/rho, b = (R r' - R' r)/(R - r) < 0,
# cancels to <= 0 in doubles: t(r) = r'/r is ~1e-62 at (0.49, 3000)
_CANCELLING_LEVELS = [
    (ConstructionParams(0.25, 400.0), 4),
    (ConstructionParams(0.25, 800.0), 5),
    (ConstructionParams(0.49, 3000.0), 3),
]


@settings(max_examples=300)
@given(case=_frame_levels(), f=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(case=_CANCELLING_LEVELS[0], f=0.0, seed=0)
@example(case=_CANCELLING_LEVELS[1], f=0.0, seed=1)
@example(case=_CANCELLING_LEVELS[2], f=0.0, seed=2)
@example(case=_CANCELLING_LEVELS[2], f=0.5, seed=3)
def test_frame_fields_match_exact_values(case, f, seed):
    """derivative_norm = max(a, t), jacobian = a t and distortion
    max(t/a, a/t) from fields lie within 2 ulp of their exact values
    for t = (r' + a (rho - r)) / rho, formed from the doubles the
    formula reads: the radii r, r', the slope a and the rho of the walk.
    The point sits at rho = r + f (R - r) from a seeded level-k center,
    moved outward by ulps until the walk puts it in a frame.  Levels past
    resolvable_depth, the cancelling ones among them, are refused."""
    params, k = case
    if k > resolvable_depth(params):
        with pytest.raises(ValueError, match=f"level-{k} is past what doubles resolve"):
            fields((0.5, 0.5), k, params)
        return
    rad = radii(k, params)
    rng = np.random.default_rng(seed)
    c = _cell_centers(rng, 1, k, params)[0]
    axis, sign = int(rng.integers(0, 2)), float(rng.choice([-1.0, 1.0]))
    goal = rad.r + f * (rad.R - rad.r)
    x = c.copy()
    x[1 - axis] += rng.uniform(-1.0, 1.0) * goal
    x[axis] += sign * goal
    while abs(x[axis] - c[axis]) < rad.r:
        x[axis] = np.nextafter(x[axis], sign * math.inf)
    x = (float(np.clip(x[0], 0.0, 1.0)), float(np.clip(x[1], 0.0, 1.0)))
    _, in_frame, level, rho = _descend(*x, k, params)[:4]
    assert in_frame
    fs = fields(x, k, params)
    lv, a = radii(level, params), Fraction(coeffs(level, params))
    t = (Fraction(lv.r_img) + a * (Fraction(rho) - Fraction(lv.r))) / Fraction(rho)
    assert _within_ulps(fs.derivative_norm, max(a, t), 2)
    assert _within_ulps(fs.jacobian, a * t, 2)
    assert _within_ulps(fs.distortion, max(t / a, a / t), 2)


@settings(max_examples=300)
@given(_frame_levels())
@example(_CANCELLING_LEVELS[0])
@example(_CANCELLING_LEVELS[1])
@example(_CANCELLING_LEVELS[2])
def test_frame_maps_glue_to_their_parents(case):
    """Over the same draws every frame map meets its parent similarity
    within 4e-15 of the outer image radius; a level is refused only where
    its least frame Jacobian, exact from the double radii, is below 2^-1022
    (up to the rounding of coeffs' own test)."""
    params, k = case
    k = max(k, MIN_LEVEL + 1)
    try:
        mismatch = consistency_check(k, 256, params)
    except ValueError:
        assert exact_least_frame_jacobian(k, params) < Fraction(2**-1022) * (1 + Fraction(1, 2**48))
        return
    assert mismatch <= 4e-15


def test_sup_distortion_matches_bound_at_depth():
    for k in (4, 5, 6, 7, 100, 10_000, 1_000_000, 10**9):
        exact = exact_sup_distortion(k, P.sigma, P.beta)
        assert abs(Decimal(sup_distortion(k, P)) / exact - 1) <= Decimal("1e-15")


def test_pre_asymptotic_levels_flagged():
    """T_k >= alpha exactly where R r' - R' r, exact from the double
    radii, is not positive."""

    def cross(k):
        rad = radii(k, P)
        return Fraction(rad.R) * Fraction(rad.r_img) - Fraction(rad.R_img) * Fraction(rad.r)

    for k in range(3, 21):
        shape = frame_shape(k, P)
        assert (shape.T >= shape.alpha) == (cross(k) <= 0), k
    assert [k for k in range(3, 21) if cross(k) <= 0] == [4, 5, 6]


@settings(max_examples=200)
@given(
    sigma=st.one_of(st.floats(1e-3, 0.49), st.floats(-15.0, -12.0).map(lambda e: 0.5 - 10.0**e)),
    beta=st.floats(0.1, 10.0),
    k=st.one_of(
        st.just(3), st.integers(4, 10**9), st.floats(0.61, 9.0).map(lambda e: int(10.0**e))
    ),
)
@example(sigma=0.45, beta=2.0, k=10**9)
@example(sigma=0.25, beta=2.0, k=10**6)
@example(sigma=0.5 - 1e-12, beta=2.0, k=3)
@example(sigma=0.005368594805550358, beta=0.33388105902637066, k=3)
def test_sup_distortion_matches_exact_radii(sigma, beta, k):
    """The closed form max(alpha / T_k, T_k / alpha) is the frame sup
    max(t/a, a/t) formed from the exact radii, at every level.  At level 3
    it lies within 6 (1 + h) u, u = 2^-53, h = (beta/2) log log 3, whose
    rounding T = expm1(h) carries (the largest measured over 4,500 draws
    is 4.0 (1 + h) u, at the last example); past it within 1e-13."""
    params = ConstructionParams(sigma, beta)
    exact = exact_sup_distortion(k, sigma, beta)
    got = sup_distortion(k, params)
    bound = 6 * (1 + frame_shape(k, params).h) * 2.0**-53 if k == 3 else 1e-13
    assert abs(Decimal(got) / exact - 1) <= Decimal(bound)


def test_sup_distortion_grows_without_bound():
    vals = [sup_distortion(10**e, P) for e in range(2, 7)]
    assert all(lo < hi for lo, hi in zip(vals, vals[1:]))
    assert vals[-1] > 1e5


def test_sup_distortion_level3_brute_force():
    for params in (P, P4, ConstructionParams(0.49, 2.0)):
        a = coeffs(3, params)
        rad = radii(3, params)
        rho = np.linspace(rad.r, rad.R, 100_001)
        t = (rad.r_img + a * (rho - rad.r)) / rho
        brute = np.max(np.maximum(t / a, a / t))
        np.testing.assert_allclose(sup_distortion(3, params), brute, rtol=1e-12)


def test_consistency_of_frame_and_parent_similarity():
    for sigma in (0.30, 0.45):
        for beta in (1.0, 2.0):
            params = ConstructionParams(sigma, beta)
            for k in (4, 8, 12):
                assert consistency_check(k, 2000, params) < 1e-12
    assert consistency_check(40, 2000, P) < 1e-12


def test_literal_radii_break_gluing():
    mismatch = consistency_check(5, 2000, P, literal=True)
    assert mismatch == pytest.approx(0.75, rel=1e-12)


def test_consistency_check_validation():
    with pytest.raises(ValueError):
        consistency_check(3, 100, P)
    with pytest.raises(ValueError):
        consistency_check(5, 0, P)


def test_monotone_along_horizontal_lines():
    xs = np.linspace(0.0, 1.0, 401)
    for y in np.linspace(0.002, 0.998, 199):
        pts = np.column_stack([xs, np.full_like(xs, y)])
        fx = evaluate_batch(pts, 5, P)[:, 0]
        assert np.all(np.diff(fx) > -1e-14)
        assert abs(fx[0]) <= 1e-15 and abs(fx[-1] - 1.0) <= 1e-15


@pytest.mark.parametrize(
    "bad", [(math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan), (math.inf, 0.5), (0.5, -0.1)]
)
def test_batch_rejects_nan_and_outside_points(bad):
    pts = np.array([[0.25, 0.25], bad])
    with pytest.raises(ValueError, match="NaN or lie outside the unit square"):
        evaluate_batch(pts, 6, P)
    with pytest.raises(ValueError, match="NaN or lie outside the unit square"):
        fields_batch(pts, 6, P)
    # the scalar path rejects the same point
    with pytest.raises(ValueError, match="outside the unit square"):
        fields(bad, 6, P)


@pytest.mark.parametrize(
    "points, depth, message",
    [
        (np.zeros((5, 3)), 6, "points must have shape (n, 2), got (5, 3)"),
        (np.zeros((5, 3)), 2, "points must have shape (n, 2), got (5, 3)"),
        (np.zeros(4), 6, "points must have shape (n, 2), got (4,)"),
        (0.5, 6, "points must have shape (n, 2), got ()"),
        ([[0.1, 0.2], [0.3]], 6, "setting an array element with a sequence."),
        ([[0.1, 0.2], [0.3, math.nan]], 6, "some points are NaN or lie outside the unit square"),
        ([[math.nan, 0.5]], 2, "some points are NaN or lie outside the unit square"),
        (np.empty((0, 2)), 2, "levels start at 3, got 2"),
    ],
    ids=["shape-5x3", "shape-before-depth", "1-d", "0-d", "ragged", "nan", "nan-before-depth",
         "empty-bad-depth"],
)
def test_batch_input_errors(points, depth, message):
    """Inputs are checked before any work, in the order shape, points, depth."""
    for fn in (evaluate_batch, fields_batch):
        with pytest.raises(ValueError) as err:
            fn(points, depth, P)
        assert str(err.value).startswith(message)


def test_similarity_ratio_values():
    np.testing.assert_allclose(similarity_ratio(3, P), L3 / 0.45**3, rtol=1e-14)
    np.testing.assert_allclose(similarity_ratio(5, P), L5 / 0.45**5, rtol=1e-14)
