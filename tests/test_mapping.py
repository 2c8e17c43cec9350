import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantormap.construction import (
    MIN_LEVEL,
    CellAddress,
    ConstructionParams,
    image_side,
    image_square,
    preimage_side,
    preimage_square,
    radii,
)
from cantormap.mapping import (
    _BLOCK,
    FrameAt,
    SquareInteriorAt,
    _descend,
    _descend_block,
    _level_table,
    coeffs,
    compare_distortion_bound,
    consistency_check,
    evaluate,
    evaluate_batch,
    fields,
    fields_batch,
    frame_map,
    locate,
    log_coeffs,
    similarity_ratio,
    sup_distortion,
)

P = ConstructionParams(0.45, 2.0)
# sigma = 1/4 makes every pre-image coordinate dyadic, handy for exact cases
P4 = ConstructionParams(0.25, 2.0)

L3 = 0.11377990332835468
L5 = 0.01941671670498787


def test_coeffs_solve_boundary_conditions():
    for k in range(3, 13):
        c = coeffs(k, P)
        rad = radii(k, P)
        np.testing.assert_allclose(c.a * rad.r + c.b, rad.r_img, rtol=1e-13)
        np.testing.assert_allclose(c.a * rad.R + c.b, rad.R_img, rtol=1e-13)
        assert c.a > 0.0


def test_coeffs_underflow_is_a_domain_error():
    # at sigma = 1e-6 the level-55 radii sigma^54 / 4 and sigma^55 / 2
    # both round to 0.0, and the level-54 side sigma^54 does too
    tiny = ConstructionParams(1e-6, 2.0)
    assert coeffs(54, tiny).a > 0.0
    with pytest.raises(ValueError, match="level-55 .* sigma=1e-06"):
        coeffs(55, tiny)
    assert similarity_ratio(53, tiny) > 0.0
    with pytest.raises(ValueError, match="level-54 .* sigma=1e-06"):
        similarity_ratio(54, tiny)
    with pytest.raises(ValueError, match="sigma=1e-06"):
        fields_batch([[0.3, 0.3]], 60, tiny)


def test_literal_coeffs_are_four_times_corrected():
    for k in (4, 7):
        c = coeffs(k, P)
        lit = coeffs(k, P, literal=True)
        assert lit.a == 4.0 * c.a
        assert lit.b == 4.0 * c.b


def test_log_coeffs_match_linear():
    for k in range(4, 41):
        c = coeffs(k, P)
        log_a, sign_b, log_b = log_coeffs(k, P)
        np.testing.assert_allclose(log_a, math.log(c.a), atol=1e-13)
        if c.b != 0.0:
            assert sign_b == (1 if c.b > 0.0 else -1)
            np.testing.assert_allclose(log_b, math.log(abs(c.b)), atol=1e-12)
    with pytest.raises(ValueError):
        log_coeffs(3, P)


def test_frame_map_boundary_and_direction():
    """On |x-q|_inf = r the map lands on |y-q'|_inf = r', same for R."""
    addr = CellAddress((3, 4), ((1,), (0,)))
    q = preimage_square(addr, P).center
    qi = image_square(addr, P).center
    k = addr.level
    rad = radii(k, P)
    c = coeffs(k, P)

    inner = (q[0] + rad.r, q[1] + 0.3 * rad.r)
    y = frame_map(inner, q, qi, c)
    np.testing.assert_allclose(
        max(abs(y[0] - qi[0]), abs(y[1] - qi[1])), rad.r_img, rtol=1e-12
    )
    outer = (q[0] - rad.R, q[1] + 0.6 * rad.R)
    y = frame_map(outer, q, qi, c)
    np.testing.assert_allclose(
        max(abs(y[0] - qi[0]), abs(y[1] - qi[1])), rad.R_img, rtol=1e-12
    )

    # radial rays are preserved: image offsets are a positive multiple
    x = (q[0] + 0.7 * rad.R, q[1] - 0.5 * rad.R)
    y = frame_map(x, q, qi, c)
    lam0 = (y[0] - qi[0]) / (x[0] - q[0])
    lam1 = (y[1] - qi[1]) / (x[1] - q[1])
    np.testing.assert_allclose(lam0, lam1, rtol=1e-13)
    assert lam0 > 0.0

    with pytest.raises(ValueError):
        frame_map(q, q, qi, c)


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
    depth = draw(st.integers(3, 60))
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
@example((P, 40, _LEVEL3_EXITS))
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


@pytest.mark.parametrize("depth", [6, 32, 60])
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


@pytest.mark.parametrize("depth", [6, 32, 60])
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
    av = np.array(tab.a)[level]
    t = av + np.array(tab.b)[level] / np.where(in_frame, rho, 1.0)
    scale = np.where(in_frame, t, tab.s_sim)
    img = np.column_stack((ci0 + scale * (x0 - c0), ci1 + scale * (x1 - c1)))
    s_sim, r, R = tab.s_sim, np.array(tab.r)[level], np.array(tab.R)[level]
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


@pytest.mark.parametrize("depth", [6, 32, 60])
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


@pytest.mark.parametrize("depth", [53, 54, 55, 60])
def test_every_entry_point_fails_on_the_same_underflowing_depths(depth):
    # at sigma = 1e-6 the level-54 side and the level-55 frame width
    # underflow; (0.5, 0.5) leaves the walk at level 3 all the same
    tiny = ConstructionParams(1e-6, 2.0)
    x = (0.5, 0.5)
    calls = [
        lambda: fields(x, depth, tiny),
        lambda: evaluate(x, depth, tiny),
        lambda: locate(x, depth, tiny),
        lambda: fields_batch([x], depth, tiny),
        lambda: evaluate_batch([x], depth, tiny),
    ]
    if depth == 53:
        assert fields(x, depth, tiny).level == 3
        for call in calls:
            call()
        return
    messages = set()
    for call in calls:
        with pytest.raises(ValueError, match="sigma=1e-06") as err:
            call()
        messages.add(str(err.value))
    level = 54 if depth == 54 else 55
    assert len(messages) == 1 and messages.pop().startswith(f"level-{level} ")


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


def test_sup_distortion_matches_bound_at_depth():
    for k in (100, 10_000, 1_000_000):
        cmp = compare_distortion_bound(k, P)
        np.testing.assert_allclose(cmp.ratio, 1.0, atol=1e-9)
        assert not cmp.pre_asymptotic


def test_pre_asymptotic_levels_flagged():
    flags = {k: compare_distortion_bound(k, P).pre_asymptotic for k in range(4, 21)}
    assert all(flags[k] for k in (4, 5, 6))
    assert not any(flags[k] for k in range(7, 21))


def test_sup_distortion_grows_without_bound():
    vals = [sup_distortion(10**e, P) for e in range(2, 7)]
    assert all(lo < hi for lo, hi in zip(vals, vals[1:]))
    assert vals[-1] > 1e5


def test_sup_distortion_level3_brute_force():
    for params in (P, P4, ConstructionParams(0.49, 2.0)):
        c = coeffs(3, params)
        rad = radii(3, params)
        rho = np.linspace(rad.r, rad.R, 100_001)
        t = c.a + c.b / rho
        brute = np.max(np.maximum(t / c.a, c.a / t))
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
        (np.empty((0, 2)), 2, "depth must lie in [3, depth_max=60], got 2"),
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
