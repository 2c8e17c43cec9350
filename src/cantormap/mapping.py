"""The piecewise sup-norm stretch between the two square families.

On each frame the map is radial in the sup norm around the cell
center: x maps to q' + t * (x - q) with rho = |x - q|_inf and
t = (r' + a * (rho - r)) / rho, where the slope a = (R' - r') / (R - r)
carries the inner boundary rho = r onto the image square and the outer
boundary rho = R onto the image quadrant.  Every term of t is
non-negative on the frame, so nothing cancels.  Inside a square at the
truncation depth the map is the plain similarity onto the image
square.  Radii are matched so that every frame map agrees with the
parent similarity on the shared quadrant boundary; the composite is
then a homeomorphism of the unit square at every truncation depth.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .construction import (
    MIN_LEVEL,
    CellAddress,
    ConstructionParams,
    _check_level,
    frame_shape,
    image_side,
    preimage_side,
    radii,
)

Point = tuple[float, float]

_SKELETON_RTOL = 1e-12


def coeffs(k: int, params: ConstructionParams, literal: bool = False) -> float:
    """The slope a = (R' - r') / (R - r) of the level-k frame map; raises
    ValueError unless r, r', R - r and R' - r' are positive and the least
    frame Jacobian a min(r'/r, R'/R) is a normal double, at least 2^-1022."""
    rad = radii(k, params, literal=literal)
    r, R, r_img, R_img = rad.r, rad.R, rad.r_img, rad.R_img
    if r > 0.0 and r_img > 0.0 and R - r > 0.0 and R_img - r_img > 0.0:
        a = (R_img - r_img) / (R - r)
        if a * min(r_img / r, R_img / R) >= sys.float_info.min:
            return a
    raise ValueError(
        f"level-{k} frame is degenerate in double precision at sigma={params.sigma},"
        f" beta={params.beta}: r, r', R - r or R' - r' rounds to 0, or the least"
        " frame Jacobian a min(r'/r, R'/R) underflows below 2^-1022"
    )


def similarity_ratio(k: int, params: ConstructionParams) -> float:
    """Scale of the similarity onto a level-k image square."""
    return image_side(k, params) / preimage_side(k, params)


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
    r_img: tuple[float, ...]  # inner image frame radius l_k / 2
    a: tuple[float, ...]  # frame-map slope
    s_sim: float  # similarity ratio onto a depth-level image square
    walk: tuple[tuple[int, float, float, float, float], ...]  # (k, r, -r, step, istep), k < depth


@functools.lru_cache(maxsize=64)
def _level_table(params: ConstructionParams, depth: int) -> _LevelTable:
    """The level table behind every evaluation; it raises _check_level's
    ValueError for a depth doubles do not resolve and coeffs' for a
    degenerate frame, so all entry points fail alike."""
    _check_level(depth, params)
    levels = range(MIN_LEVEL, depth + 1)
    slopes, rads = [coeffs(k, params) for k in levels], [radii(k, params) for k in levels]
    s_sim = similarity_ratio(depth, params)
    pad = (0.0,) * MIN_LEVEL
    r = pad + tuple(rad.r for rad in rads)
    step = pad + tuple(preimage_side(k, params) / 4.0 for k in levels)
    istep = pad + tuple(image_side(k, params) / 4.0 for k in levels)
    return _LevelTable(
        r,
        pad + tuple(rad.R for rad in rads),
        step,
        istep,
        pad + tuple(rad.r_img for rad in rads),
        pad + tuple(slopes),
        s_sim,
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
        s = (tab.r_img[k] + a * (rho - r)) / rho
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
    a_of, r_of, R_of, r_img_of = (np.array(col) for col in (tab.a, tab.r, tab.R, tab.r_img))
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
        # frame values t = (r' + a (rho - r)) / rho by fields' operations, only
        # where in_frame, over the similarity's: other lanes neither compute nor warn
        av, r = a_of[level], r_of[level]
        t = np.full(len(x0), s_sim)
        np.subtract(rho, r, out=t, where=in_frame)
        np.multiply(av, t, out=t, where=in_frame)
        np.add(r_img_of[level], t, out=t, where=in_frame)
        np.divide(t, rho, out=t, where=in_frame)
        np.add(ci0, t * (x0 - c0), out=b["image"][:, 0])
        np.add(ci1, t * (x1 - c1), out=b["image"][:, 1])
        if with_fields:
            R = R_of[level]
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


def sup_distortion(k: int, params: ConstructionParams) -> float:
    """Supremum of the pointwise distortion over a level-k frame.

    The scale t = (r' + a (rho - r)) / rho = a + (R r' - R' r) / ((R - r) rho)
    is monotone in rho, and so is the distortion max(t/a, a/t); the sup
    sits at the inner radius, where t = r'/r.  In the frame's shape
    (construction.frame_shape), r = rho R and r' = u R' with u = 1 / (1 + T),
    so t/a = r' (R - r) / (r (R' - r')) is exactly alpha u / (1 - u) = alpha / T
    with alpha = (1 - rho) / rho, at every level.  R r' - R' r has the sign
    of u - rho, so the pre-asymptotic levels (R r' <= R' r, where t <= a and
    the sup is T / alpha) are exactly those with T >= alpha.  Raises
    ValueError where the sup is past double range.
    """
    shape = frame_shape(k, params)
    try:
        alpha, T = shape.alpha, shape.T
        K = max(alpha / T, T / alpha)
    except (ZeroDivisionError, OverflowError):  # rho or T underflows, or T overflows
        K = math.inf
    if K == math.inf:
        raise ValueError(
            f"level-{k} sup distortion overflows double precision"
            f" at sigma={params.sigma}, beta={params.beta}"
        )
    return K


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
    a = coeffs(k, params, literal=literal)
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
    scale = (rad.r_img + a * (rho - rad.r)) / rho
    f0 = sgn0 * istep + scale * dx
    f1 = sgn1 * istep + scale * dy
    g0 = s_par * (sgn0 * step + dx)
    g1 = s_par * (sgn1 * step + dy)
    mismatch = np.maximum(np.abs(f0 - g0), np.abs(f1 - g1))
    return float(mismatch.max() / rad.R_img)
