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

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .construction import (
    MIN_LEVEL,
    CellAddress,
    ConstructionParams,
    image_side,
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


class _LevelTable(NamedTuple):
    """Constants of levels MIN_LEVEL..depth for one (params, depth), indexed by level."""

    r: tuple[float, ...]  # inner frame radius sigma^k / 2, the frame test's bound on rho
    R: tuple[float, ...]  # outer frame radius
    step: tuple[float, ...]  # sigma^k / 4, the move to a child's pre-image center
    istep: tuple[float, ...]  # l_k / 4, the move to a child's image center
    a: tuple[float, ...]  # frame-map coefficients
    b: tuple[float, ...]
    s_sim: float  # similarity ratio onto a depth-level image square
    walk: tuple[tuple[int, float, float, float, float], ...]  # (k, r, -r, step, istep), k < depth


@functools.lru_cache(maxsize=64)
def _level_table(params: ConstructionParams, depth: int) -> _LevelTable:
    """The level table behind every evaluation; it raises coeffs' or similarity_ratio's
    ValueError when any level up to depth underflows, so all entry points fail alike."""
    if not MIN_LEVEL <= depth <= params.depth_max:
        raise ValueError(f"depth must lie in [{MIN_LEVEL}, depth_max={params.depth_max}], got {depth}")
    levels = range(MIN_LEVEL, depth + 1)
    cs, rads = [coeffs(k, params) for k in levels], [radii(k, params) for k in levels]
    pad = (0.0,) * MIN_LEVEL
    r = pad + tuple(rad.r for rad in rads)
    step = pad + tuple(preimage_side(k, params) / 4.0 for k in levels)
    istep = pad + tuple(image_side(k, params) / 4.0 for k in levels)
    return _LevelTable(
        r,
        pad + tuple(rad.R for rad in rads),
        step,
        istep,
        pad + tuple(c.a for c in cs),
        pad + tuple(c.b for c in cs),
        similarity_ratio(depth, params),
        tuple((k, r[k], -r[k], step[k], istep[k]) for k in range(MIN_LEVEL, depth)),
    )


def _descend(x0: float, x1: float, depth: int, params: ConstructionParams):
    """Scalar level walk; returns the level table, the placement and both centers.

    Closed-frame convention: rho >= r_k stays in the level-k frame, so
    the inner square boundary belongs to the frame and every point of
    the unit square is resolved.  Ties between grid cells go to the
    higher cell.  Each axis's half choices come packed in one int,
    p = 2*p + bit from a leading 1, so bin(p)[3:] spells them in order.
    A level tests the displacements d = x - c directly: max(|d0|, |d1|)
    >= r exactly when not (-r < d0 < r and -r < d1 < r), and x >= c
    exactly when d >= 0, so rho is formed only once, at the exit level.
    """
    if not (0.0 <= x0 <= 1.0 and 0.0 <= x1 <= 1.0):
        raise ValueError(f"point ({x0}, {x1}) lies outside the unit square")
    tab = _level_table(params, depth)
    o0, o1 = min(int(x0 * 8.0), 7), min(int(x1 * 8.0), 7)
    c0 = ci0 = (o0 + 0.5) / 8.0
    c1 = ci1 = (o1 + 0.5) / 8.0
    p0 = p1 = 1
    for k, r, neg_r, step, istep in tab.walk:
        d0, d1 = x0 - c0, x1 - c1
        if not (neg_r < d0 < r and neg_r < d1 < r):
            break
        if d0 >= 0.0:
            c0 += step
            ci0 += istep
            p0 = 2 * p0 + 1
        else:
            c0 -= step
            ci0 -= istep
            p0 = 2 * p0
        if d1 >= 0.0:
            c1 += step
            ci1 += istep
            p1 = 2 * p1 + 1
        else:
            c1 -= step
            ci1 -= istep
            p1 = 2 * p1
    else:
        k = depth
    rho = max(abs(x0 - c0), abs(x1 - c1))
    in_frame = rho >= tab.r[k]
    return tab, in_frame, k, rho, (o0, o1), (p0, p1), (c0, c1), (ci0, ci1)


def locate(x: Point, depth: int, params: ConstructionParams) -> RegionLocation:
    """Resolve x to a frame or a depth-truncated square interior."""
    _, in_frame, _, rho, octant, packed, _, _ = _descend(float(x[0]), float(x[1]), depth, params)
    addr = CellAddress(octant, tuple(tuple(int(b) for b in bin(p)[3:]) for p in packed))
    return FrameAt(addr, rho) if in_frame else SquareInteriorAt(addr, truncated=True)


def evaluate(x: Point, depth: int, params: ConstructionParams) -> Point:
    """The depth-truncated stretch map at a single point."""
    return fields(x, depth, params).image


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
    x0, x1 = float(x[0]), float(x[1])
    tab, in_frame, k, rho, _, _, q, q_img = _descend(x0, x1, depth, params)
    if in_frame:
        a, r, R = tab.a[k], tab.r[k], tab.R[k]
        s = a + tab.b[k] / rho
        dn, jac, dist = max(a, s), a * s, max(s / a, a / s)
        skel = abs(rho - r) <= _SKELETON_RTOL * r or abs(rho - R) <= _SKELETON_RTOL * R
    else:
        s = tab.s_sim
        dn, jac, dist, skel = s, s * s, 1.0, False
    img = (q_img[0] + s * (x0 - q[0]), q_img[1] + s * (x1 - q[1]))
    return FieldSample((x0, x1), img, k, in_frame, dn, jac, dist, skel)


# points per block of the batch walk: a block's ~10 live float columns
# (256 KiB each) stay in a 2 MiB L2 cache instead of streaming from memory
_BLOCK = 1 << 15


def _descend_block(x0, x1, depth: int, tab: _LevelTable, level, in_frame):
    """Vectorized level walk of one block with the scalar walk's conventions.

    Writes each point's level and in_frame into the given arrays and
    returns its rho and the four centers (pre-image, then image; equal
    at level 3).  A point leaves the walk at its frame level or at
    depth.  Invariant at the top of each level: idx lists the points
    still walking in increasing order, row j of the active arrays holds
    point idx[j]'s coordinates and current centers, and every point
    that left has its level, in_frame, rho and centers in the outputs.
    While no point has left, idx is None and the active arrays are the
    inputs and outputs themselves, so nothing is copied.  A level where
    points leave computes the leaving and staying row numbers once and
    moves every column with them.  Centers move by c +- step as in the
    scalar walk, so the two agree bit for bit.
    """
    c0, c1 = [(np.minimum((xa * 8.0).astype(np.int64), 7) + 0.5) / 8.0 for xa in (x0, x1)]
    centers = [c0, c1, c0.copy(), c1.copy()]
    rho_out = np.empty(len(x0))
    idx, ax, ac = None, [x0, x1], list(centers)
    for k in range(MIN_LEVEL, depth + 1):
        d = [ax[0] - ac[0], ax[1] - ac[1]]
        rho = np.maximum(np.abs(d[0]), np.abs(d[1]), out=rho_out if idx is None else None)
        hit = rho >= tab.r[k]
        leave = hit if k < depth else np.ones_like(hit)
        lv = np.flatnonzero(leave)
        if len(lv):
            st = np.flatnonzero(~leave)
            if idx is None:
                gone, idx = lv, st
            else:
                gone = idx.take(lv)
                rho_out[gone] = rho.take(lv)
                for out, a in zip(centers, ac):
                    out[gone] = a.take(lv)
                idx = idx.take(st)
            level[gone] = k
            in_frame[gone] = hit.take(lv)
            if len(idx) == 0:
                break
            ax, ac = [a.take(st) for a in ax], [a.take(st) for a in ac]
            d = [ax[0] - ac[0], ax[1] - ac[1]]
        # x >= c exactly when x - c is +0 or more: c > 0, so x - c is never -0
        for a, da, s in zip(ac, d + d, (tab.step[k],) * 2 + (tab.istep[k],) * 2):
            a += np.copysign(s, da)
    return rho_out, centers


def _map_batch(points, depth: int, params: ConstructionParams, with_fields: bool) -> dict:
    """The batch map behind evaluate_batch and fields_batch.

    Validates all points first, then takes one block of _BLOCK points
    at a time through the walk and the epilogue while its columns are
    in cache, writing straight into the preallocated outputs.  Every
    point's values are independent, so blocking changes no double.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    # NaN fails both comparisons, so it is rejected too
    if not np.all((pts >= 0.0) & (pts <= 1.0)):
        raise ValueError("some points are NaN or lie outside the unit square")
    tab = _level_table(params, depth)
    n, s_sim = len(pts), tab.s_sim
    a_of, b_of, r_of, R_of = (np.array(col) for col in (tab.a, tab.b, tab.r, tab.R))
    out = {"image": np.empty((n, 2))}
    if with_fields:
        out.update(level=np.empty(n, dtype=np.int64), in_frame=np.empty(n, dtype=bool))
        out.update((key, np.empty(n)) for key in ("derivative_norm", "jacobian", "distortion"))
        out["on_skeleton"] = np.empty(n, dtype=bool)
    for lo in range(0, n, _BLOCK):
        b = {key: col[lo : lo + _BLOCK] for key, col in out.items()}
        x0, x1 = pts[lo : lo + _BLOCK, 0], pts[lo : lo + _BLOCK, 1]
        if with_fields:
            level, in_frame = b["level"], b["in_frame"]
        else:  # evaluate_batch returns neither, so each block keeps its own
            level, in_frame = np.empty(len(x0), dtype=np.int64), np.empty(len(x0), dtype=bool)
        rho, (c0, c1, ci0, ci1) = _descend_block(x0, x1, depth, tab, level, in_frame)
        # frame values t = a + b / rho only where in_frame, over the
        # similarity's values: the other lanes neither compute nor warn
        av = a_of[level]
        t = np.full(len(x0), s_sim)
        np.divide(b_of[level], rho, out=t, where=in_frame)
        np.add(t, av, out=t, where=in_frame)
        np.add(ci0, t * (x0 - c0), out=b["image"][:, 0])
        np.add(ci1, t * (x1 - c1), out=b["image"][:, 1])
        if with_fields:
            r, R = r_of[level], R_of[level]
            dn, jac, dist = b["derivative_norm"], b["jacobian"], b["distortion"]
            out_frame = ~in_frame
            np.copyto(dn, s_sim, where=out_frame)
            np.copyto(jac, s_sim * s_sim, where=out_frame)
            np.copyto(dist, 1.0, where=out_frame)
            np.maximum(av, t, out=dn, where=in_frame)
            np.multiply(av, t, out=jac, where=in_frame)
            np.divide(t, av, out=dist, where=in_frame)
            np.maximum(dist, np.divide(av, t, out=av, where=in_frame), out=dist, where=in_frame)
            np.logical_and(
                in_frame,
                (np.abs(rho - r) <= _SKELETON_RTOL * r) | (np.abs(rho - R) <= _SKELETON_RTOL * R),
                out=b["on_skeleton"],
            )
    return out


def evaluate_batch(points, depth: int, params: ConstructionParams) -> np.ndarray:
    """Vectorized evaluate; returns an (n, 2) array of image points."""
    return _map_batch(points, depth, params, False)["image"]


def fields_batch(points, depth: int, params: ConstructionParams) -> dict:
    """Vectorized fields; returns a dict of aligned arrays."""
    return _map_batch(points, depth, params, True)


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
