"""Static SVG picture of the stretch map.

Draws the image squares of levels 3..depth colored by level, overlaid
with the image of a uniform mesh so the warp is visible.  Output is a
plain string with fixed float formatting: rendering the same
parameters twice yields identical bytes.
"""

from __future__ import annotations

import numpy as np

from .construction import (
    DEFAULT_CELL_CAP,
    MIN_LEVEL,
    ConstructionParams,
    _check_level,
    axis_centers,
    cell_axis_indices,
    image_side,
)
from .mapping import evaluate_batch

_VIEW = 1000.0
_LEVEL_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def _to_view(xy: np.ndarray) -> np.ndarray:
    # unit square to SVG pixels, y flipped so the origin sits bottom-left
    out = np.empty_like(xy)
    out[:, 0] = xy[:, 0] * _VIEW
    out[:, 1] = (1.0 - xy[:, 1]) * _VIEW
    return out


def _polyline(img: np.ndarray) -> str:
    pts = _to_view(img)
    coords = " ".join(["%.3f,%.3f"] * len(pts)) % tuple(pts.ravel().tolist())
    return (
        f'<polyline points="{coords}" fill="none" stroke="#333333" '
        'stroke-width="0.6"/>'
    )


def render_svg(
    params: ConstructionParams,
    depth: int,
    grid: int = 64,
    samples_per_cell: int = 8,
    cap: int = DEFAULT_CELL_CAP,
) -> str:
    """SVG drawing of the depth-truncated map, 1000x1000 view box.

    grid is the number of mesh cells per axis whose warped gridlines
    are drawn; 0 suppresses the mesh.  Each gridline is sampled
    samples_per_cell times per mesh cell so the sup-norm kinks show.
    Square enumeration honors cap like enumerate_cells.
    """
    _check_level(depth, params)
    if grid < 0 or samples_per_cell < 1:
        raise ValueError("grid must be >= 0 and samples_per_cell >= 1")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {int(_VIEW)} {int(_VIEW)}">',
        f'<rect x="0" y="0" width="{int(_VIEW)}" height="{int(_VIEW)}" fill="#ffffff"/>',
    ]
    for k in range(MIN_LEVEL, depth + 1):
        color = _LEVEL_COLORS[(k - MIN_LEVEL) % len(_LEVEL_COLORS)]
        i0, i1 = cell_axis_indices(k, params, cap=cap)
        c, _ = axis_centers(k, params, image=True)
        side = image_side(k, params)
        # corner coordinates per axis center; a square's x comes from its
        # axis-0 center and its (flipped) y from its axis-1 center
        xs = ["%.3f" % v for v in ((c - side / 2.0) * _VIEW).tolist()]
        ys = ["%.3f" % v for v in ((1.0 - (c + side / 2.0)) * _VIEW).tolist()]
        w = "%.3f" % (side * _VIEW)
        rect = (
            f'<rect x="%s" y="%s" width="{w}" height="{w}" '
            f'fill="{color}" fill-opacity="0.8"/>'
        )
        parts.extend([rect % (xs[a], ys[b]) for a, b in zip(i0.tolist(), i1.tolist())])
    if grid > 0:
        # gridlines i = 0..grid, each vertical then horizontal, stacked
        # into one batch; a point's image does not depend on its batch
        m = samples_per_cell * grid + 1
        ts = np.linspace(0.0, 1.0, m)
        lines = []
        for i in range(grid + 1):
            fixed = np.full(m, i / grid)
            lines += [np.column_stack([fixed, ts]), np.column_stack([ts, fixed])]
        img = evaluate_batch(np.concatenate(lines), depth, params)
        parts.extend(_polyline(img[j : j + m]) for j in range(0, len(img), m))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
