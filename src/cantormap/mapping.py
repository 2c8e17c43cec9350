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
    higher cell.  A level tests the displacements d = x - c directly:
    max(|d0|, |d1|) >= r exactly when not (-r < d0 < r and -r < d1 < r),
    and x >= c exactly when d >= 0, so rho is formed only once, at the
    exit level.  The half choices are not kept; locate replays them.
    """
    if not (0.0 <= x0 <= 1.0 and 0.0 <= x1 <= 1.0):
        raise ValueError(f"point ({x0}, {x1}) lies outside the unit square")
    tab = _level_table(params, depth)
    c0 = ci0 = (min(int(x0 * 8.0), 7) + 0.5) / 8.0
    c1 = ci1 = (min(int(x1 * 8.0), 7) + 0.5) / 8.0
    for k, r, neg_r, step, istep in tab.walk:
        d0, d1 = x0 - c0, x1 - c1
        if not (neg_r < d0 < r and neg_r < d1 < r):
            break
        if d0 >= 0.0:
            c0 += step
            ci0 += istep
        else:
            c0 -= step
            ci0 -= istep
        if d1 >= 0.0:
            c1 += step
            ci1 += istep
        else:
            c1 -= step
            ci1 -= istep
    else:
        k = depth
    rho = max(abs(x0 - c0), abs(x1 - c1))
    in_frame = rho >= tab.r[k]
    return tab, in_frame, k, rho, (c0, c1), (ci0, ci1)


def locate(x: Point, depth: int, params: ConstructionParams) -> RegionLocation:
    """Resolve x to a frame or a depth-truncated square interior."""
    x0, x1 = float(x[0]), float(x[1])
    tab, in_frame, k, rho, _, _ = _descend(x0, x1, depth, params)
    # replay the walk's x >= c tests on its own float chain over the k - 3 levels it stepped
    octant, bits = (min(int(x0 * 8.0), 7), min(int(x1 * 8.0), 7)), []
    for xa, o in zip((x0, x1), octant):
        c, axis_bits = (o + 0.5) / 8.0, []
        for step in tab.step[MIN_LEVEL:k]:
            axis_bits.append(int(xa >= c))
            c = c + step if axis_bits[-1] else c - step
        bits.append(tuple(axis_bits))
    addr = CellAddress(octant, tuple(bits))
    return FrameAt(addr, rho) if in_frame else SquareInteriorAt(addr, truncated=True)


def evaluate(x: Point, depth: int, params: ConstructionParams) -> Point:
    """The depth-truncated stretch map at a single point."""
    return fields(x, depth, params).image


class FieldSample(NamedTuple):
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
    tab, in_frame, k, rho, q, q_img = _descend(x0, x1, depth, params)
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


# points per block of the batch walk: its 11 live float columns (x, the
# four centers, d and the signed step on both axes, and rho) at 128 KiB
# each take 1.375 MiB of a 2 MiB L2 cache.  On 1e6 points fields_batch
# then holds 1.6 MB (points that all reach depth) to 2.4 MB (uniform
# points) above its 41.0 MiB of outputs (43 bytes a point), by
# tracemalloc's peak; 3.3 and 4.7 MB at 1 << 15.
_BLOCK = 1 << 14


def _descend_block(x0, x1, depth: int, tab: _LevelTable, level, in_frame):
    """Vectorized level walk of one block with the scalar walk's conventions.

    Writes each point's level and in_frame into the given arrays (the
    level array's integer dtype need only hold depth) and returns its
    rho and the four centers (pre-image, then image; equal at level 3).
    A point leaves the walk at its frame level or at depth.  The walk
    keeps three active (2, m) arrays, x, the pre-image centers and the
    image centers, one row per axis, so x is copied once
    into unit-stride rows and each step covers both axes in one call.
    Invariant at the top of each level: idx lists the points still
    walking in increasing order, column j of the active arrays belongs
    to point idx[j], and every point that left has its level, in_frame,
    rho and centers in the outputs.  While no point has left, idx is
    None and the active centers are the returned centers themselves.  A
    level below depth is tested by two reductions over d = x - c on
    both axes, as the scalar walk tests a point: every point stays
    exactly when -r < min(d) and max(d) < r.  Only a level where that
    fails, and depth, forms rho, finds the leaving and staying columns
    once and moves the active arrays with them.  d and the signed steps
    are written in place into buffers of the block's size.  Centers move
    by c +- step as in the scalar walk, the step carrying the sign bit
    of d, so the two agree bit for bit.

    Every array here is at most (2, m), and the level-3 centers are
    formed in place: a (6, m) active array, or the four temporaries of
    forming those centers out of place, left later callers a larger
    heap, and the cli_suite benchmark's peak RSS rose by up to 0.5 MB.
    """
    n = len(x0)
    x = np.empty((2, n))
    x[0], x[1] = x0, x1
    # the level-3 centers (min(int(8 x), 7) + 0.5) / 8, in place: on
    # [0, 8] floor is the int cast, so the doubles are the scalar walk's
    c = np.multiply(x, 8.0)
    np.floor(c, out=c)
    np.minimum(c, 7.0, out=c)
    np.add(c, 0.5, out=c)
    np.divide(c, 8.0, out=c)
    centers, rho_out = [c, c.copy()], np.empty(n)
    act = [x, *centers]
    # d on both axes and the signed step, rewritten in place at every level
    d_buf, s_buf = np.empty(2 * n), np.empty(2 * n, dtype=np.int64)
    # the int64 patterns of the positive steps, and the sign bit alone
    sign = np.int64(-(2**63))
    step_bits, istep_bits = np.array(tab.step).view(np.int64), np.array(tab.istep).view(np.int64)
    idx = None
    for k in range(MIN_LEVEL, depth + 1):
        r = tab.r[k]
        m = act[0].shape[1]
        d = np.subtract(act[0], act[1], out=d_buf[: 2 * m].reshape(2, m))
        # initial=0 keeps an empty block whole and changes no other verdict
        if k == depth or not (-r < d.min(initial=0.0) and d.max(initial=0.0) < r):
            np.abs(d, out=d)
            rho = np.maximum(d[0], d[1], out=rho_out if idx is None else d[0])
            hit = rho >= r
            leave = hit if k < depth else np.ones_like(hit)
            lv, st = np.flatnonzero(leave), np.flatnonzero(~leave)
            if idx is None:
                gone, idx = lv, st
            else:
                gone = idx.take(lv)
                rho_out[gone] = rho.take(lv)
                # row by row: a 2-d scatter out[:, gone] took about 2.7 times as long
                for out, a in zip(centers, act[1:]):
                    v = a.take(lv, axis=1)
                    out[0][gone] = v[0]
                    out[1][gone] = v[1]
                idx = idx.take(st)
            level[gone] = k
            # below depth a point leaves only into a frame
            in_frame[gone] = hit if k == depth else True
            if len(idx) == 0:
                break
            act, m = [a.take(st, axis=1) for a in act], len(st)
            d = np.subtract(act[0], act[1], out=d_buf[: 2 * m].reshape(2, m))
        # x >= c exactly when x - c is +0 or more (c > 0, so x - c is never
        # -0), and then the sign bit of d is clear and the step is +step
        sg = np.bitwise_and(d.view(np.int64), sign, out=d.view(np.int64))
        s = s_buf[: 2 * m].reshape(2, m)
        act[1] += np.bitwise_or(sg, step_bits[k], out=s).view(np.float64)
        act[2] += np.bitwise_or(sg, istep_bits[k], out=s).view(np.float64)
    return rho_out, [*centers[0], *centers[1]]


def _map_block(x0, x1, b: dict, depth: int, tab: _LevelTable, with_fields: bool) -> None:
    """Walks one block and writes its image, and with_fields its fields,
    into the output slices b.  Every block column dies on return, so
    none is held while the next block walks."""
    s_sim = tab.s_sim
    if with_fields:
        level, in_frame = b["level"], b["in_frame"]
    else:  # evaluate_batch returns neither, so each block keeps its own
        level, in_frame = np.empty(len(x0), dtype=np.int64), np.empty(len(x0), dtype=bool)
    rho, (c0, c1, ci0, ci1) = _descend_block(x0, x1, depth, tab, level, in_frame)
    # one cast of fields_batch's int8 levels serves the four table gathers
    level = level.astype(np.intp, copy=False)
    # frame values t = (r' + a (rho - r)) / rho by fields' operations, only
    # where in_frame, over the similarity's: other lanes neither compute nor warn
    av, r = np.array(tab.a)[level], np.array(tab.r)[level]
    t = np.full(len(x0), s_sim)
    np.subtract(rho, r, out=t, where=in_frame)
    np.multiply(av, t, out=t, where=in_frame)
    np.add(np.array(tab.r_img)[level], t, out=t, where=in_frame)
    np.divide(t, rho, out=t, where=in_frame)
    np.add(ci0, t * (x0 - c0), out=b["image"][:, 0])
    np.add(ci1, t * (x1 - c1), out=b["image"][:, 1])
    if with_fields:
        R = np.array(tab.R)[level]
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
    # a NaN makes min and max NaN, which fails both comparisons
    if not (pts.min(initial=0.0) >= 0.0 and pts.max(initial=1.0) <= 1.0):
        raise ValueError("some points are NaN or lie outside the unit square")
    tab = _level_table(params, depth)
    n = len(pts)
    out = {"image": np.empty((n, 2))}
    if with_fields:
        # int8 levels, as no resolvable depth passes 45.  The byte columns
        # are rows of one buffer: as three arrays, glibc's heap put the
        # map_cli benchmark's peak RSS 5.6 MB higher in some checkout paths.
        flags = np.empty((3, n), dtype=np.uint8)
        out.update(level=flags[0].view(np.int8), in_frame=flags[1].view(bool))
        out.update((key, np.empty(n)) for key in ("derivative_norm", "jacobian", "distortion"))
        out["on_skeleton"] = flags[2].view(bool)
    for lo in range(0, n, _BLOCK):
        b = {key: col[lo : lo + _BLOCK] for key, col in out.items()}
        _map_block(pts[lo : lo + _BLOCK, 0], pts[lo : lo + _BLOCK, 1], b, depth, tab, with_fields)
    return out


def evaluate_batch(points, depth: int, params: ConstructionParams) -> np.ndarray:
    """Vectorized evaluate; returns an (n, 2) array of image points."""
    return _map_batch(points, depth, params, False)["image"]


def fields_batch(points, depth: int, params: ConstructionParams) -> dict:
    """Vectorized fields; returns a dict of aligned arrays.

    Keys, in order: image (n, 2) float64, level int8, in_frame bool,
    derivative_norm, jacobian and distortion float64, on_skeleton bool;
    43 bytes a point in seven C-contiguous arrays that share no memory.
    level, in_frame and on_skeleton are rows of one (3, n) buffer, so
    deleting one of those keys frees nothing.
    """
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
