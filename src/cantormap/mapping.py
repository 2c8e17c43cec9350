"""The piecewise sup-norm stretch between the two square families.

On each frame the map is radial in the sup norm around the cell
center: x maps to q' + (a*rho + b) * (x - q) / rho with
rho = |x - q|_inf, where a and b are chosen so the inner boundary
lands on the image square and the outer boundary on the image
quadrant.  Inside a square at the truncation depth the map is the
plain similarity onto the image square.  Radii are matched so that
every frame map agrees with the parent similarity on the shared
quadrant boundary; the composite is then a homeomorphism of the unit
square at every truncation depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .construction import (
    MIN_LEVEL,
    CellAddress,
    ConstructionParams,
    image_side,
    image_square,
    log_image_side,
    log_log_ratio,
    preimage_side,
    radii,
)

Point = tuple[float, float]

_SKELETON_RTOL = 1e-12


@dataclass(frozen=True)
class FrameMapCoeffs:
    """Affine radial profile rho -> a*rho + b of one level's frame map."""

    level: int
    a: float
    b: float


def coeffs(k: int, params: ConstructionParams, literal: bool = False) -> FrameMapCoeffs:
    """Solve a*r + b = r', a*R + b = R' for the level-k frame map."""
    rad = radii(k, params, literal=literal)
    den = rad.R - rad.r
    if den == 0.0:
        raise ValueError(
            f"level-{k} frame has zero width in double precision at sigma={params.sigma}"
            " (sigma^k underflows); use a smaller depth"
        )
    a = (rad.R_img - rad.r_img) / den
    b = (rad.R * rad.r_img - rad.R_img * rad.r) / den
    return FrameMapCoeffs(k, a, b)


def log_coeffs(k: int, params: ConstructionParams) -> tuple[float, int, float]:
    """(log a, sign of b, log |b|) for deep levels, k >= 4.

    The linear formulas lose the small differences R' - r' and
    R*r' - R'*r once the sides underflow; these closed forms factor
    the common scales out first.  With u = (log(k-1)/log k)^(beta/2):

        a = l_{k-1} (1 - u) / (sigma^(k-1) (1 - 2 sigma))
        b = l_{k-1} sigma^(k-1) (u/2 - sigma) / (sigma^(k-1) (1 - 2 sigma)) * 2

    expressed below entirely in logs; b keeps only its sign and
    log-magnitude.  sign 0 encodes b = 0.
    """
    if k < MIN_LEVEL + 1:
        raise ValueError(f"log_coeffs needs k >= {MIN_LEVEL + 1}, got {k}")
    sigma, beta = params.sigma, params.beta
    llr = log_log_ratio(k)
    one_minus_u = -math.expm1(-0.5 * beta * llr)
    log_lk1 = log_image_side(k - 1, params)
    log_gap_pre = (k - 1) * math.log(sigma) + math.log((1.0 - 2.0 * sigma) / 4.0)
    log_a = log_lk1 + math.log(one_minus_u / 4.0) - log_gap_pre
    u = math.exp(-0.5 * beta * llr)
    x = u / 2.0 - sigma
    if x == 0.0:
        return log_a, 0, float("-inf")
    sign_b = 1 if x > 0.0 else -1
    log_b = (
        (k - 1) * math.log(sigma)
        + log_lk1
        + math.log(abs(x) / 8.0)
        - log_gap_pre
    )
    return log_a, sign_b, log_b


def frame_map(x: Point, q: Point, q_img: Point, c: FrameMapCoeffs) -> Point:
    """Apply one frame map given pre and image centers."""
    dx, dy = x[0] - q[0], x[1] - q[1]
    rho = max(abs(dx), abs(dy))
    if rho == 0.0:
        raise ValueError("frame map is singular at the frame center")
    scale = c.a + c.b / rho
    return (q_img[0] + scale * dx, q_img[1] + scale * dy)


def similarity_ratio(k: int, params: ConstructionParams) -> float:
    """Scale of the similarity onto a level-k image square."""
    side = preimage_side(k, params)
    if side == 0.0:
        raise ValueError(
            f"level-{k} square has zero side in double precision at sigma={params.sigma}"
            " (sigma^k underflows); use a smaller depth"
        )
    return image_side(k, params) / side


@dataclass(frozen=True)
class FrameAt:
    """x lies in the closed level-`address.level` frame around `address`."""

    address: CellAddress
    rho: float


@dataclass(frozen=True)
class SquareInteriorAt:
    """x lies strictly inside the addressed square; descent stopped at depth."""

    address: CellAddress
    truncated: bool = True


RegionLocation = Union[FrameAt, SquareInteriorAt]


def _descend(x: Point, depth: int, params: ConstructionParams):
    """Shared level walk; returns placement plus both centers.

    Closed-frame convention: rho >= r_k stays in the level-k frame, so
    the inner square boundary belongs to the frame and every point of
    the unit square is resolved.  Ties between grid cells go to the
    higher cell.
    """
    x0, x1 = float(x[0]), float(x[1])
    if not (0.0 <= x0 <= 1.0 and 0.0 <= x1 <= 1.0):
        raise ValueError(f"point ({x0}, {x1}) lies outside the unit square")
    if not MIN_LEVEL <= depth <= params.depth_max:
        raise ValueError(
            f"depth must lie in [{MIN_LEVEL}, depth_max={params.depth_max}], got {depth}"
        )
    o0 = min(int(x0 * 8.0), 7)
    o1 = min(int(x1 * 8.0), 7)
    c0 = (o0 + 0.5) / 8.0
    c1 = (o1 + 0.5) / 8.0
    ci0, ci1 = c0, c1
    bits0: list[int] = []
    bits1: list[int] = []
    for k in range(MIN_LEVEL, depth + 1):
        rho = max(abs(x0 - c0), abs(x1 - c1))
        if rho >= preimage_side(k, params) / 2.0:
            return True, k, rho, (o0, o1), tuple(bits0), tuple(bits1), (c0, c1), (ci0, ci1)
        if k == depth:
            return False, k, rho, (o0, o1), tuple(bits0), tuple(bits1), (c0, c1), (ci0, ci1)
        step = preimage_side(k, params) / 4.0
        istep = image_side(k, params) / 4.0
        b0 = 1 if x0 >= c0 else 0
        b1 = 1 if x1 >= c1 else 0
        bits0.append(b0)
        bits1.append(b1)
        c0 += step if b0 else -step
        c1 += step if b1 else -step
        ci0 += istep if b0 else -istep
        ci1 += istep if b1 else -istep
    raise AssertionError("descent fell through")


def locate(x: Point, depth: int, params: ConstructionParams) -> RegionLocation:
    """Resolve x to a frame or a depth-truncated square interior."""
    in_frame, k, rho, octant, bits0, bits1, _, _ = _descend(x, depth, params)
    addr = CellAddress(octant, (bits0, bits1))
    if in_frame:
        return FrameAt(addr, rho)
    return SquareInteriorAt(addr, truncated=True)


def evaluate(x: Point, depth: int, params: ConstructionParams) -> Point:
    """The depth-truncated stretch map at a single point."""
    in_frame, k, rho, _, _, _, q, q_img = _descend(x, depth, params)
    if in_frame:
        return frame_map(x, q, q_img, coeffs(k, params))
    s = similarity_ratio(k, params)
    return (q_img[0] + s * (x[0] - q[0]), q_img[1] + s * (x[1] - q[1]))


@dataclass(frozen=True)
class FieldSample:
    """Pointwise map data: image, derivative norm, Jacobian, distortion.

    on_skeleton flags points within relative 1e-12 of a frame
    boundary, where the derivative exists only one-sidedly.
    """

    point: Point
    image: Point
    level: int
    in_frame: bool
    derivative_norm: float
    jacobian: float
    distortion: float
    on_skeleton: bool


def fields(x: Point, depth: int, params: ConstructionParams) -> FieldSample:
    in_frame, k, rho, _, _, _, q, q_img = _descend(x, depth, params)
    if in_frame:
        c = coeffs(k, params)
        t = c.a + c.b / rho
        dn = max(c.a, t)
        jac = c.a * t
        dist = max(t / c.a, c.a / t)
        rad = radii(k, params)
        skel = (
            abs(rho - rad.r) <= _SKELETON_RTOL * rad.r
            or abs(rho - rad.R) <= _SKELETON_RTOL * rad.R
        )
        img = frame_map(x, q, q_img, c)
    else:
        s = similarity_ratio(k, params)
        dn, jac, dist, skel = s, s * s, 1.0, False
        img = (q_img[0] + s * (x[0] - q[0]), q_img[1] + s * (x[1] - q[1]))
    return FieldSample((float(x[0]), float(x[1])), img, k, in_frame, dn, jac, dist, skel)


def _descend_batch(points, depth: int, params: ConstructionParams):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    # NaN fails both comparisons, so it is rejected too
    if not np.all((pts >= 0.0) & (pts <= 1.0)):
        raise ValueError("some points are NaN or lie outside the unit square")
    if not MIN_LEVEL <= depth <= params.depth_max:
        raise ValueError(
            f"depth must lie in [{MIN_LEVEL}, depth_max={params.depth_max}], got {depth}"
        )
    x0, x1 = pts[:, 0], pts[:, 1]
    o = np.minimum((pts * 8.0).astype(np.int64), 7)
    c0 = (o[:, 0] + 0.5) / 8.0
    c1 = (o[:, 1] + 0.5) / 8.0
    ci0, ci1 = c0.copy(), c1.copy()
    n = len(pts)
    level = np.full(n, depth, dtype=np.int64)
    in_frame = np.zeros(n, dtype=bool)
    rho_out = np.zeros(n)
    active = np.ones(n, dtype=bool)
    for k in range(MIN_LEVEL, depth + 1):
        rho = np.maximum(np.abs(x0 - c0), np.abs(x1 - c1))
        hit = active & (rho >= preimage_side(k, params) / 2.0)
        level[hit] = k
        in_frame[hit] = True
        rho_out[hit] = rho[hit]
        active &= ~hit
        if k == depth:
            rho_out[active] = rho[active]
            break
        if not active.any():
            break
        step = preimage_side(k, params) / 4.0
        istep = image_side(k, params) / 4.0
        s0 = np.where(x0 >= c0, 1.0, -1.0)
        s1 = np.where(x1 >= c1, 1.0, -1.0)
        c0 = np.where(active, c0 + s0 * step, c0)
        c1 = np.where(active, c1 + s1 * step, c1)
        ci0 = np.where(active, ci0 + s0 * istep, ci0)
        ci1 = np.where(active, ci1 + s1 * istep, ci1)
    return x0, x1, level, in_frame, rho_out, c0, c1, ci0, ci1


def _level_tables(depth: int, params: ConstructionParams):
    a = np.zeros(depth + 1)
    b = np.zeros(depth + 1)
    r = np.zeros(depth + 1)
    R = np.zeros(depth + 1)
    for k in range(MIN_LEVEL, depth + 1):
        c = coeffs(k, params)
        rad = radii(k, params)
        a[k], b[k], r[k], R[k] = c.a, c.b, rad.r, rad.R
    return a, b, r, R


def evaluate_batch(points, depth: int, params: ConstructionParams) -> np.ndarray:
    """Vectorized evaluate; returns an (n, 2) array of image points."""
    x0, x1, level, in_frame, rho, c0, c1, ci0, ci1 = _descend_batch(points, depth, params)
    a, b, _, _ = _level_tables(depth, params)
    s_sim = similarity_ratio(depth, params)
    rho_safe = np.where(in_frame, rho, 1.0)
    scale = np.where(in_frame, a[level] + b[level] / rho_safe, s_sim)
    out = np.empty((len(x0), 2))
    out[:, 0] = ci0 + scale * (x0 - c0)
    out[:, 1] = ci1 + scale * (x1 - c1)
    return out


def fields_batch(points, depth: int, params: ConstructionParams) -> dict:
    """Vectorized fields; returns a dict of aligned arrays."""
    x0, x1, level, in_frame, rho, c0, c1, ci0, ci1 = _descend_batch(points, depth, params)
    a, b, r, R = _level_tables(depth, params)
    s_sim = similarity_ratio(depth, params)
    rho_safe = np.where(in_frame, rho, 1.0)
    t = a[level] + b[level] / rho_safe
    av = a[level]
    dn = np.where(in_frame, np.maximum(av, t), s_sim)
    jac = np.where(in_frame, av * t, s_sim * s_sim)
    dist = np.where(in_frame, np.maximum(t / av, av / t), 1.0)
    skel = in_frame & (
        (np.abs(rho - r[level]) <= _SKELETON_RTOL * r[level])
        | (np.abs(rho - R[level]) <= _SKELETON_RTOL * R[level])
    )
    scale = np.where(in_frame, t, s_sim)
    img = np.empty((len(x0), 2))
    img[:, 0] = ci0 + scale * (x0 - c0)
    img[:, 1] = ci1 + scale * (x1 - c1)
    return {
        "image": img,
        "level": level,
        "in_frame": in_frame,
        "derivative_norm": dn,
        "jacobian": jac,
        "distortion": dist,
        "on_skeleton": skel,
    }


def cantor_image(
    path: Union[CellAddress, Iterable[CellAddress]], params: ConstructionParams
) -> Point:
    """Image point addressed by a nested cell path.

    Accepts one address or a run of successively refined addresses and
    returns the center of the deepest image square; the limit point of
    the full refinement lies within half that square's side on each
    axis.  Raises ValueError if consecutive addresses do not nest.
    """
    if isinstance(path, CellAddress):
        addr = path
    else:
        addrs = list(path)
        if not addrs:
            raise ValueError("empty address path")
        addr = addrs[0]
        for nxt in addrs[1:]:
            if nxt.level != addr.level + 1 or not nxt.extends(addr):
                raise ValueError(
                    f"inconsistent address path at level {nxt.level}: "
                    f"{nxt} does not refine {addr}"
                )
            addr = nxt
    return image_square(addr, params).center


def distortion_bound_T(k: int, beta: float) -> float:
    """T = (log k / log(k-1))^(beta/2) - 1 for k >= 4, cancellation-free."""
    return math.expm1(0.5 * beta * log_log_ratio(k))


def sup_distortion(k: int, params: ConstructionParams) -> float:
    """Supremum of the pointwise distortion over a level-k frame.

    The radial profile makes the distortion max(t/a, a/t) monotone in
    rho with t = a + b/rho, so the sup sits at the inner radius where
    t = r'/r.  Evaluated in log space; valid to k ~ 1e9.
    """
    if k == MIN_LEVEL:
        c = coeffs(k, params)
        rad = radii(k, params)
        t = rad.r_img / rad.r
        return max(t / c.a, c.a / t)
    log_t = log_image_side(k, params) - k * math.log(params.sigma)
    log_a, _, _ = log_coeffs(k, params)
    return math.exp(abs(log_t - log_a))


@dataclass(frozen=True)
class DistortionComparison:
    """Exact frame sup of the distortion next to its closed-form bound.

    pre_asymptotic marks levels where the radial offset b is not yet
    positive; there the bound still dominates but is no longer tight.
    """

    level: int
    exact: float
    bound: float
    ratio: float
    pre_asymptotic: bool


def compare_distortion_bound(k: int, params: ConstructionParams) -> DistortionComparison:
    """Exact sup distortion vs the bound alpha / T_k, k >= 4.

    alpha = (1 - 2 sigma) / (2 sigma).  Once b > 0 (u/2 > sigma, which
    holds for all large k) the two agree exactly; the ratio is 1 up to
    rounding.
    """
    if k < MIN_LEVEL + 1:
        raise ValueError(f"comparison needs k >= {MIN_LEVEL + 1}, got {k}")
    sigma = params.sigma
    alpha = (1.0 - 2.0 * sigma) / (2.0 * sigma)
    exact = sup_distortion(k, params)
    bound = alpha / distortion_bound_T(k, params.beta)
    _, sign_b, _ = log_coeffs(k, params)
    return DistortionComparison(k, exact, bound, exact / bound, sign_b <= 0)


def consistency_check(
    k: int,
    n_samples: int,
    params: ConstructionParams,
    seed: int = 0x5EED,
    literal: bool = False,
) -> float:
    """Max relative mismatch of a level-k frame map against its parent
    similarity on random outer-boundary points.

    Samples random child quadrants and random points on the outer
    frame boundary |x - q|_inf = R_k, evaluates the frame map and the
    parent similarity as displacements from the shared parent image
    center (the identity is translation invariant, and working at the
    quadrant scale keeps full relative precision, which an O(1) global
    offset would destroy at deep levels), and returns the largest
    sup-norm difference divided by the outer image radius.  Zero up to
    rounding certifies that consecutive truncation depths glue;
    literal=True runs the rejected radii variant, which misses by
    order one.
    """
    if k < MIN_LEVEL + 1:
        raise ValueError(f"consistency needs a parent level, so k >= 4, got {k}")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    rad = radii(k, params, literal=literal)
    cf = coeffs(k, params, literal=literal)
    s_par = similarity_ratio(k - 1, params)
    step = preimage_side(k - 1, params) / 4.0
    istep = image_side(k - 1, params) / 4.0

    sgn0 = 2.0 * rng.integers(0, 2, n_samples) - 1.0
    sgn1 = 2.0 * rng.integers(0, 2, n_samples) - 1.0
    face = rng.integers(0, 4, n_samples)
    off = (2.0 * rng.random(n_samples) - 1.0) * rad.R
    dx = np.where(face == 0, rad.R, np.where(face == 1, -rad.R, off))
    dy = np.where(face >= 2, np.where(face == 2, rad.R, -rad.R), off)
    rho = np.maximum(np.abs(dx), np.abs(dy))
    scale = cf.a + cf.b / rho
    f0 = sgn0 * istep + scale * dx
    f1 = sgn1 * istep + scale * dy
    g0 = s_par * (sgn0 * step + dx)
    g1 = s_par * (sgn1 * step + dy)
    mismatch = np.maximum(np.abs(f0 - g0), np.abs(f1 - g1))
    return float(mismatch.max() / rad.R_img)
