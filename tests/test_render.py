import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cantormap.construction import (
    DEFAULT_CELL_CAP,
    MIN_LEVEL,
    ConstructionParams,
    EnumerationCapError,
    enumerate_cells,
    image_square,
)
from cantormap.mapping import _BLOCK, evaluate_batch
from cantormap.render import render_svg

P = ConstructionParams(0.45, 2.0)

SVG_NS = "{http://www.w3.org/2000/svg}"


def test_svg_parses_and_counts():
    svg = render_svg(P, 3, grid=4, samples_per_cell=2)
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    assert root.attrib["viewBox"] == "0 0 1000 1000"
    rects = root.findall(f"{SVG_NS}rect")
    # background plus the 64 level-3 image squares
    assert len(rects) == 1 + 64
    lines = root.findall(f"{SVG_NS}polyline")
    assert len(lines) == (4 + 1) * 2
    for pl in lines:
        assert len(pl.attrib["points"].split(" ")) == 2 * 4 + 1


def test_deeper_levels_accumulate():
    svg = render_svg(P, 4, grid=0)
    root = ET.fromstring(svg)
    assert len(root.findall(f"{SVG_NS}rect")) == 1 + 64 + 256


def test_no_mesh_when_grid_zero():
    svg = render_svg(P, 3, grid=0)
    assert "polyline" not in svg


def test_render_is_deterministic():
    a = render_svg(P, 4, grid=8, samples_per_cell=4)
    b = render_svg(P, 4, grid=8, samples_per_cell=4)
    assert a == b
    assert a.endswith("</svg>\n")


def test_render_validation():
    with pytest.raises(ValueError):
        render_svg(P, 2)
    with pytest.raises(ValueError):
        render_svg(P, 4, grid=-1)
    with pytest.raises(ValueError):
        render_svg(P, 4, samples_per_cell=0)
    with pytest.raises(EnumerationCapError):
        render_svg(P, 5, cap=256)


def reference_render_svg(params, depth, grid=64, samples_per_cell=8, cap=DEFAULT_CELL_CAP):
    """render_svg drawn one square and one mesh point at a time, as a
    reference: each rect from image_square of an enumerated address and
    each coordinate through f"{v:.3f}"."""
    view = 1000.0
    colors = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {int(view)} {int(view)}">',
        f'<rect x="0" y="0" width="{int(view)}" height="{int(view)}" fill="#ffffff"/>',
    ]
    for k in range(MIN_LEVEL, depth + 1):
        color = colors[(k - MIN_LEVEL) % len(colors)]
        for addr in enumerate_cells(k, params, cap=cap):
            sq = image_square(addr, params)
            x = (sq.center[0] - sq.side / 2.0) * view
            y = (1.0 - (sq.center[1] + sq.side / 2.0)) * view
            w = sq.side * view
            parts.append(
                f'<rect x="{x:.3f}" y="{y:.3f}" width="{w:.3f}" '
                f'height="{w:.3f}" fill="{color}" fill-opacity="0.8"/>'
            )

    def polyline(img):
        pts = np.column_stack([img[:, 0] * view, (1.0 - img[:, 1]) * view])
        coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in pts)
        return f'<polyline points="{coords}" fill="none" stroke="#333333" stroke-width="0.6"/>'

    if grid > 0:
        m = samples_per_cell * grid + 1
        ts = np.linspace(0.0, 1.0, m)
        for i in range(grid + 1):
            fixed = np.full(m, i / grid)
            parts.append(polyline(evaluate_batch(np.column_stack([fixed, ts]), depth, params)))
            parts.append(polyline(evaluate_batch(np.column_stack([ts, fixed]), depth, params)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@pytest.mark.parametrize("samples_per_cell", [1, 8])
@pytest.mark.parametrize("grid", [0, 4, 8])
@pytest.mark.parametrize("depth", [3, 4, 5])
def test_render_bytes_match_reference(depth, grid, samples_per_cell):
    for params in (P, ConstructionParams(0.3, 1.0)):
        got = render_svg(params, depth, grid=grid, samples_per_cell=samples_per_cell)
        assert got == reference_render_svg(params, depth, grid, samples_per_cell)


def test_render_mesh_across_batch_blocks_matches_reference():
    # 130 gridlines of 513 points: 66,690 mesh points span more than two _BLOCK blocks
    assert 130 * 513 > 2 * _BLOCK
    for params in (P, ConstructionParams(0.3, 1.0)):
        got = render_svg(params, 4, grid=64, samples_per_cell=8)
        assert got == reference_render_svg(params, 4, 64, 8)


def test_render_cap_error_matches_enumeration():
    with pytest.raises(EnumerationCapError) as want:
        reference_render_svg(P, 5, grid=0, cap=256)
    with pytest.raises(EnumerationCapError) as got:
        render_svg(P, 5, grid=0, cap=256)
    assert str(got.value) == str(want.value)
