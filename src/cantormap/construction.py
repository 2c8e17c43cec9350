"""Two nested families of squares over the unit square.

Both families start at level 3 with 64 squares, one centered in each
cell of the 8x8 grid.  Every square has four children, one centered in
each quadrant of its parent.  The pre-image family shrinks
geometrically (side sigma^k at level k, 0 < sigma < 1/2); the image
family shrinks like 2^-k with a logarithmic haircut
(side 2^-k * (log k)^(-beta/2)).  Around each square sits a sup-norm
annulus, the frame, reaching from the square boundary out to the
boundary of the parent quadrant; frames tile each quadrant minus the
child square exactly.

Level indices start at 3 everywhere so that log log k is defined and
positive along the image family.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

MIN_LEVEL = 3
DEFAULT_CELL_CAP = 1 << 24
LOG2 = math.log(2.0)

# half-width of a level-3 grid cell; shared by both families
LEVEL3_OUTER_RADIUS = 1.0 / 16.0


class EnumerationCapError(ValueError):
    """Cell enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class ConstructionParams:
    """Shape parameters shared by the two families.

    sigma: per-level contraction of the pre-image side, in (0, 1/2).
    beta: exponent of the logarithmic haircut on the image side, finite, > 0.
    depth_max: deepest level any operation may address; resolvable_depth binds first.
    """

    sigma: float
    beta: float
    depth_max: int = 60

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma < 0.5:
            raise ValueError(f"sigma must lie in (0, 1/2), got {self.sigma}")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        if self.depth_max < MIN_LEVEL:
            raise ValueError(f"depth_max must be at least {MIN_LEVEL}, got {self.depth_max}")


def _check_level(k: int, params: ConstructionParams | None = None) -> None:
    """The one depth gate: refuses a level below 3 or past the largest double,
    and given params one past resolvable_depth(params) or depth_max."""
    if k < MIN_LEVEL:
        raise ValueError(f"levels start at {MIN_LEVEL}, got {k}")
    if k > sys.float_info.max:
        raise ValueError(f"levels end at the largest double, {sys.float_info.max:.6g}; "
                         f"got one of {len(str(k))} digits")
    if params is None:
        return
    depth = resolvable_depth(params)
    if k > depth:
        where = (f"the resolvable depth is {depth}, the deepest d whose levels k <= d all have"
                 " center steps sigma^k/4 and l_k/4 above k 2^-53" if depth >= MIN_LEVEL else
                 "no depth is resolvable: a level-3 center step sigma^3/4 or l_3/4 is not above 3 2^-53")
        raise ValueError(f"level-{k} is past what doubles resolve at sigma={params.sigma},"
                         f" beta={params.beta}: {where}")
    if k > params.depth_max:
        raise ValueError(f"level {k} exceeds depth_max {params.depth_max}")


@functools.lru_cache(maxsize=256)
def resolvable_depth(params: ConstructionParams) -> int:
    """The deepest depth d whose levels k in 3..d all have both center steps,
    sigma^k / 4 and l_k / 4, above k u, u = 2^-53; 2 where level 3 fails.

    A level-k center is a chain of k rounded additions, about k u off
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4), which
    a smaller step no longer moves.  No sigma < 1/2 passes level 46, as
    2^(51 - k) > k fails there.  Down to d every side exceeds 4 k u, so none
    rounds to 0 and the similarity scale l_d / sigma^d has a square below 1e31.
    """
    k = MIN_LEVEL
    while min(preimage_side(k, params), image_side(k, params)) / 4.0 > k * 2.0**-53:
        k += 1
    return k - 1


def preimage_side(k: int, params: ConstructionParams) -> float:
    """Side length sigma^k of a level-k pre-image square."""
    _check_level(k)
    return params.sigma**k


def image_side(k: int, params: ConstructionParams) -> float:
    """Side length 2^-k * (log k)^(-beta/2) of a level-k image square."""
    _check_level(k)
    return 2.0**-k * math.log(k) ** (-params.beta / 2.0)


def log_image_side(k: int, params: ConstructionParams) -> float:
    """log of image_side, usable far beyond double range (k ~ 1e9)."""
    _check_level(k)
    return -k * LOG2 - 0.5 * params.beta * math.log(math.log(k))


def log_log_ratio(k: int) -> float:
    """log(log k / log(k-1)) for k >= 4, free of cancellation.

    Both factors tend to each other like 1/(k log k); the direct
    quotient loses all precision near k ~ 1e9.  Writing the gap
    log k - log(k-1) as -log1p(-1/k) keeps full precision.
    """
    if k < MIN_LEVEL + 1:
        raise ValueError(f"need k >= {MIN_LEVEL + 1}, got {k}")
    delta = -math.log1p(-1.0 / k)
    return math.log1p(delta / math.log(k - 1))


@dataclass(frozen=True)
class LevelRadii:
    """Inner and outer frame radii at one level, both families."""

    r: float
    R: float
    r_img: float
    R_img: float


def radii(k: int, params: ConstructionParams, literal: bool = False) -> LevelRadii:
    """Frame radii at level k (sup-norm distances from the cell center).

    Pre-image: r = sigma^k / 2, R = sigma^(k-1) / 4, except R = 1/16 at
    level 3 where the quadrant is a grid cell.  Image: r' = l_k / 2,
    R' = l_{k-1} / 4 (again 1/16 at level 3), with l_k the image side.

    literal=True restores a rejected variant in which the image radii
    read 2*l_k and l_{k-1}.  That scales every image frame by four, so
    frames overflow their quadrants and consecutive levels stop
    agreeing on shared boundaries; the mode exists only so the defect
    stays demonstrable (see mapping.consistency_check).
    """
    _check_level(k)
    r = params.sigma**k / 2.0
    R = LEVEL3_OUTER_RADIUS if k == MIN_LEVEL else params.sigma ** (k - 1) / 4.0
    if literal:
        r_img = 2.0 * image_side(k, params)
        R_img = LEVEL3_OUTER_RADIUS if k == MIN_LEVEL else image_side(k - 1, params)
    else:
        r_img = image_side(k, params) / 2.0
        R_img = LEVEL3_OUTER_RADIUS if k == MIN_LEVEL else image_side(k - 1, params) / 4.0
    return LevelRadii(r, R, r_img, R_img)


# log log 3 correctly rounded; math.log(math.log(3.0)) is 6 ulp above it
LOG_LOG3 = 0.09404782761669901


class FrameShape(NamedTuple):
    """A level-k frame in units of its outer radii (frame_shape)."""

    log_P: float  # the pre-image outer radius is R = P / 4
    log_P_img: float  # the image outer radius is R' = P' / 4
    rho: float  # r = rho R
    one_minus_rho: float
    h: float  # r' = u R' with u = exp(-h)

    @property
    def alpha(self) -> float:
        return self.one_minus_rho / self.rho

    @property
    def T(self) -> float:
        """1 / u - 1."""
        return math.expm1(self.h)


def frame_shape(k: int, params: ConstructionParams) -> FrameShape:
    """The level-k frame as the closed forms read it, at any level k >= 3.

    Past level 3, P = sigma^(k-1), P' = l_{k-1}, rho = 2 sigma and
    h = (beta/2) log(log k / log(k-1)).  At level 3, where both outer
    radii are the grid's 1/16, P = P' = 1/4, rho = 8 sigma^3, with
    1 - rho = (1 - 2 sigma)(1 + 2 sigma + 4 sigma^2) free of cancellation,
    and h = (beta/2) log log 3.  At every level R_{k+1} = r_k / 2 and
    R'_{k+1} = r'_k / 2, alpha = (1 - rho) / rho and T = expm1(h).  The
    shape holds log P and log P', finite far past the levels where the
    radii underflow.  The map itself glues with the double radii of radii().
    """
    _check_level(k)
    sigma, half_beta = params.sigma, 0.5 * params.beta
    if k == MIN_LEVEL:
        return FrameShape(-2.0 * LOG2, -2.0 * LOG2, 8.0 * sigma**3,
                          (1.0 - 2.0 * sigma) * (1.0 + 2.0 * sigma + 4.0 * sigma * sigma),
                          half_beta * LOG_LOG3)
    return FrameShape((k - 1) * math.log(sigma), log_image_side(k - 1, params),
                      2.0 * sigma, 1.0 - 2.0 * sigma, half_beta * log_log_ratio(k))


@dataclass(frozen=True)
class CellAddress:
    """Symbolic address of one square, valid in both families.

    octant: per-axis index (0..7) of the level-3 cell in the 8x8 grid.
    refinements: per-axis tuples of half choices, one entry per level
    past 3; 0 means the low half of the parent, 1 the high half.  Both
    axes must be refined to the same level.
    """

    octant: tuple[int, int]
    refinements: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())

    def __post_init__(self) -> None:
        if len(self.octant) != 2 or not all(0 <= o <= 7 for o in self.octant):
            raise ValueError(f"octant must be a pair in 0..7, got {self.octant}")
        if len(self.refinements) != 2:
            raise ValueError("refinements must hold one tuple per axis")
        if len(self.refinements[0]) != len(self.refinements[1]):
            raise ValueError(
                "both axes must be refined to the same level, got "
                f"{len(self.refinements[0])} and {len(self.refinements[1])} bits"
            )
        for bits in self.refinements:
            if any(b not in (0, 1) for b in bits):
                raise ValueError(f"refinement bits must be 0 or 1, got {bits}")

    @property
    def level(self) -> int:
        return MIN_LEVEL + len(self.refinements[0])

    def axis_path(self, axis: int) -> str:
        """Octant digit followed by the refinement bits, e.g. '5011'."""
        return str(self.octant[axis]) + "".join(str(b) for b in self.refinements[axis])

    @classmethod
    def from_axis_paths(cls, path0: str, path1: str) -> "CellAddress":
        def parse(path: str) -> tuple[int, tuple[int, ...]]:
            if not path or path[0] not in "01234567":
                raise ValueError(f"axis path must start with an octant digit, got {path!r}")
            if any(c not in "01" for c in path[1:]):
                raise ValueError(f"axis path bits must be 0 or 1, got {path!r}")
            return int(path[0]), tuple(int(c) for c in path[1:])

        o0, b0 = parse(path0)
        o1, b1 = parse(path1)
        return cls((o0, o1), (b0, b1))


@dataclass(frozen=True)
class Square:
    center: tuple[float, float]
    side: float


def _axis_center(
    octant: int, bits: Sequence[int], params: ConstructionParams, image: bool
) -> float:
    """Per-cell reference the axis-center table (_axis_levels,
    axis_centers, cell_axis_indices) is tested against; no command
    calls it, and it stays while perfbench/ wraps its two callers."""
    c = (octant + 0.5) / 8.0
    side_fn = image_side if image else preimage_side
    for j, b in enumerate(bits):
        step = side_fn(MIN_LEVEL + j, params) / 4.0
        c += step if b else -step
    return c


def preimage_square(addr: CellAddress, params: ConstructionParams) -> Square:
    """Per-cell reference the axis-center table (_axis_levels,
    axis_centers, cell_axis_indices) is tested against; no command
    calls it, and it stays while perfbench/ wraps it by name."""
    _check_level(addr.level, params)
    return Square(
        (
            _axis_center(addr.octant[0], addr.refinements[0], params, image=False),
            _axis_center(addr.octant[1], addr.refinements[1], params, image=False),
        ),
        preimage_side(addr.level, params),
    )


def image_square(addr: CellAddress, params: ConstructionParams) -> Square:
    """Per-cell reference the axis-center table (_axis_levels,
    axis_centers, cell_axis_indices) is tested against; no command
    calls it, and it stays while perfbench/ wraps it by name."""
    _check_level(addr.level, params)
    return Square(
        (
            _axis_center(addr.octant[0], addr.refinements[0], params, image=True),
            _axis_center(addr.octant[1], addr.refinements[1], params, image=True),
        ),
        image_side(addr.level, params),
    )


def _bits(value: int, nbits: int) -> tuple[int, ...]:
    return tuple((value >> (nbits - 1 - j)) & 1 for j in range(nbits))


def _check_cell_count(k: int, params: ConstructionParams, cap: int) -> None:
    _check_level(k, params)
    count = 1 << (2 * k)
    if count > cap:
        raise EnumerationCapError(
            f"level {k} holds 2^{2 * k} = {count} cells, above the cap {cap}; "
            "raise the cap to enumerate anyway"
        )


def enumerate_cells(
    k: int, params: ConstructionParams, cap: int = DEFAULT_CELL_CAP
) -> Iterator[CellAddress]:
    """All 2^(2k) level-k addresses in a fixed deterministic order.

    Octant-major (axis 0 outer, axis 1 inner), then refinement bits in
    lexicographic order per axis.  Raises EnumerationCapError before
    yielding anything if 2^(2k) exceeds cap.

    Per-cell reference the axis-center table (_axis_levels,
    axis_centers, cell_axis_indices) is tested against; no command
    calls it, and it stays while perfbench/ wraps it by name.
    """
    _check_cell_count(k, params, cap)
    nbits = k - MIN_LEVEL
    for o0 in range(8):
        for o1 in range(8):
            for m0 in range(1 << nbits):
                bits0 = _bits(m0, nbits)
                for m1 in range(1 << nbits):
                    yield CellAddress((o0, o1), (bits0, _bits(m1, nbits)))


def cell_axis_indices(
    k: int, params: ConstructionParams, cap: int = DEFAULT_CELL_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis indices into the axis_centers(k) table of every level-k
    cell, in enumerate_cells order.

    Cell n of enumerate_cells(k) has axis paths paths[i0[n]] and
    paths[i1[n]].  Same level and cap checks as enumerate_cells, raised
    at the call.
    """
    _check_cell_count(k, params, cap)
    per_octant = 1 << (k - MIN_LEVEL)
    # axis index of (octant, refinement bits m): octant * 2^nbits + m
    index = np.arange(8 * per_octant).reshape(8, per_octant)
    shape = (8, 8, per_octant, per_octant)
    i0 = np.broadcast_to(index[:, None, :, None], shape).ravel()
    i1 = np.broadcast_to(index[None, :, None, :], shape).ravel()
    return i0, i1


def _axis_levels(
    k_max: int, params: ConstructionParams, image: bool
) -> Iterator[tuple[int, np.ndarray, list[str]]]:
    """(k, centers, paths) of the 1-D axis centers for k = 3..k_max.

    Entry j of level k is the center _axis_center gives for the octant
    digit and refinement bits of paths[j]; its children at level k + 1
    are entries 2j (bit 0) and 2j + 1 (bit 1).  Each level adds -step or
    +step to its parent, the same float additions _axis_center makes,
    so the table equals it bit for bit.  Raises _check_level's
    ValueError for a k_max doubles do not resolve, where centers would
    stop moving off their parents.
    """
    _check_level(k_max, params)
    side_fn = image_side if image else preimage_side
    centers = (np.arange(8) + 0.5) / 8.0
    paths = [str(octant) for octant in range(8)]
    yield MIN_LEVEL, centers, paths
    for k in range(MIN_LEVEL, k_max):
        step = side_fn(k, params) / 4.0
        centers = np.column_stack([centers - step, centers + step]).ravel()
        paths = [p + bit for p in paths for bit in "01"]
        yield k + 1, centers, paths


def axis_centers(
    k: int, params: ConstructionParams, image: bool
) -> tuple[np.ndarray, list[str]]:
    """The 8 * 2^(k-3) level-k axis centers of one family, with their
    axis paths (octant digit, then refinement bits), in path order.

    Every level-k center of the family is a pair (centers[i0],
    centers[i1]) of these; cell_axis_indices gives the pairs in
    enumerate_cells order.
    """
    for _, centers, paths in _axis_levels(k, params, image):
        pass
    return centers, paths


@dataclass
class ValidationReport:
    """Outcome of validate_geometry; empty violations means all good."""

    k_max: int
    checks_run: int = 0
    violations: list[tuple[int, str, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def validate_geometry(
    k_max: int, params: ConstructionParams, tol: float = 1e-12
) -> ValidationReport:
    """Check the nesting and disjointness invariants of both families.

    Two checks per level and family: every level-3 interval lies
    strictly inside its grid cell, and every deeper one strictly inside
    the parent half selected by its bit (one check per interval); and
    the least gap between two axis centers is at least 2R - tol, so
    sibling frames, and the squares inside them, have disjoint
    interiors.  side <= 2R holds as doubles at every level of both
    families, so no square check could fail alone.  Sibling centers lie
    two steps apart, at no less than 2R - u (u = 2^-53) once rounded, so
    at the default tol no valid input fails the gap check.  tol is
    absolute: at sigma = 0.45, 2R < 1e-12 from level 35, where the bound
    2R - tol is negative.  The level-k centers are the product set
    C x C, so the least sup-norm distance between two of them is the
    least axis gap, as the same double (rounding is monotone): the 2-D
    check reads that gap.  Axis factors are exhausted up to k_max.

    The frame radii and the interval centers are not checked against
    the sides: radii and _axis_levels compute them from the sides by
    the very formulas such a check would use, so it would compare each
    double with itself.

    Violations are reported as (level, locator, invariant) triples.  A
    k_max doubles do not resolve raises _check_level's ValueError, from
    _axis_levels: its centers stop moving and no check means anything.
    """
    report = ValidationReport(k_max)
    for image in (False, True):
        fam = "image" if image else "pre"
        side_fn = image_side if image else preimage_side
        parent = None
        for k, c, paths in _axis_levels(k_max, params, image):
            side = side_fn(k, params)
            rad = radii(k, params)
            R = rad.R_img if image else rad.R

            if k == MIN_LEVEL:
                octant = np.arange(8)
                lo, hi = octant / 8.0, (octant + 1) / 8.0
                message = "level-3 interval not strictly inside its grid cell"
            else:
                parent_c = np.repeat(parent, 2)
                parent_half = side_fn(k - 1, params) / 2.0
                high = np.zeros(len(c), dtype=bool)
                high[1::2] = True  # refinement bit 1: the parent's high half
                lo = np.where(high, parent_c, parent_c - parent_half)
                hi = np.where(high, parent_c + parent_half, parent_c)
                message = "child interval not strictly inside parent half"
            outside = ~((lo < c - side / 2.0) & (c + side / 2.0 < hi))
            report.checks_run += len(c)
            for j in np.flatnonzero(outside).tolist():
                report.violations.append((k, f"{fam}:{paths[j]}", message))
            parent = c

            gap = np.diff(np.sort(c)).min()
            report.checks_run += 1
            if gap < 2.0 * R - tol:
                report.violations.append(
                    (k, fam, "sibling frames overlap along an axis")
                )

    return report
