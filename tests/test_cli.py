import csv
import io
import json
import math
import time
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from gain_oracle import exact_gain_ratio, exact_tv_integral, exact_tv_log_term, exact_tv_ratio
from mass_oracle import brute_mass_bound

from cantormap.analysis import p_threshold
from cantormap.cli import (
    _CONSTRUCT_CSV_ROW,
    _CONSTRUCT_JSON_CELL,
    _MAP_CSV_ROW,
    _MAP_JSON_ROW,
    _ROW_BLOCK,
    _fill_rows,
    _float_column,
    _read_points,
    build_parser,
    main,
)
from cantormap.construction import (
    ConstructionParams,
    EnumerationCapError,
    enumerate_cells,
    image_side,
    image_square,
    preimage_side,
    preimage_square,
    validate_geometry,
)
from cantormap.mapping import fields_batch


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_csv_row_counts(capsys):
    code, out, _ = run_cli(["construct", "--depth", "3"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "level,ax0_path,ax1_path,cx,cy,side"
    assert len(lines) == 1 + 64
    first = lines[1].split(",")
    assert first[0] == "3" and first[1] == "0" and first[2] == "0"

    code, out, _ = run_cli(["construct", "--depth", "4"], capsys)
    assert len(out.strip().split("\n")) == 1 + 256


def test_construct_json_document(capsys):
    code, out, _ = run_cli(["construct", "--depth", "3", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"params", "results", "checks"}
    assert doc["params"]["sigma"] == 0.45
    assert doc["params"]["command"] == "construct"
    assert doc["results"]["count"] == 64
    cell = doc["results"]["cells"][0]
    assert set(cell) == {"level", "ax0_path", "ax1_path", "pre_center", "image_center"}
    assert doc["checks"][0]["name"] == "geometry_invariants"
    assert doc["checks"][0]["status"] == "pass"


def test_construct_cap_exit(capsys):
    code, out, err = run_cli(["construct", "--depth", "5", "--cap", "256"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "cap" in err


def reference_construct_output(argv):
    """construct's output built cell by cell, as a reference.

    Every cell is a CellAddress from enumerate_cells whose centers come
    from preimage_square and image_square; each row is a list (CSV) or
    a dict (JSON) written by csv.writer or by json.dumps(doc, indent=2,
    sort_keys=True).  The command's table-driven writers must reproduce
    these bytes.
    """
    args = build_parser().parse_args(argv)
    params = ConstructionParams(args.sigma, args.beta)
    cells = list(enumerate_cells(args.depth, params, cap=args.cap))
    side = preimage_side(args.depth, params)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["level", "ax0_path", "ax1_path", "cx", "cy", "side"])
        for addr in cells:
            sq = preimage_square(addr, params)
            writer.writerow(
                [addr.level, addr.axis_path(0), addr.axis_path(1), sq.center[0], sq.center[1], side]
            )
        return buf.getvalue()
    report = validate_geometry(min(args.depth, 10), params)
    out_cells = [
        {
            "level": addr.level,
            "ax0_path": addr.axis_path(0),
            "ax1_path": addr.axis_path(1),
            "pre_center": list(preimage_square(addr, params).center),
            "image_center": list(image_square(addr, params).center),
        }
        for addr in cells
    ]
    results = {
        "level": args.depth,
        "count": len(cells),
        "pre_side": side,
        "image_side": image_side(args.depth, params),
        "cells": out_cells,
    }
    checks = [
        {
            "name": "geometry_invariants",
            "status": "pass" if report.passed else "fail",
            "measured": f"{len(report.violations)} violations in {report.checks_run} checks",
            "target": "0 violations",
        }
    ]
    doc = {"params": vars(args), "results": results, "checks": checks}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("sigma,beta", [("0.45", "2.0"), ("0.3", "1")])
@pytest.mark.parametrize("depth", ["3", "4", "5", "6"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_construct_bytes_match_reference(fmt, depth, sigma, beta, capsys):
    argv = ["construct", "--depth", depth, "--sigma", sigma, "--beta", beta, "--format", fmt]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.encode() == reference_construct_output(argv).encode()


def test_construct_failing_geometry_matches_reference(capsys):
    # at the double just below 1/2 rounding pushes some child intervals
    # out of their parent halves: the check fails and construct exits 1
    argv = ["construct", "--depth", "4", "--sigma", "0.49999999999999994", "--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    assert out == reference_construct_output(argv)
    assert json.loads(out)["checks"][0]["status"] == "fail"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_construct_cap_error_text(fmt, capsys):
    with pytest.raises(EnumerationCapError) as want:
        reference_construct_output(["construct", "--depth", "5", "--cap", "256"])
    code, out, err = run_cli(["construct", "--depth", "5", "--cap", "256", "--format", fmt], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {want.value}\n"


def test_invalid_sigma_exit(capsys):
    code, _, err = run_cli(["construct", "--sigma", "0.6"], capsys)
    assert code == 2
    assert "error:" in err


def test_map_points_file(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.5,0.5\n0.123,0.456\n")
    code, out, _ = run_cli(["map", str(pts)], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,fx,fy,dnorm,jac,K,skeleton"
    assert len(lines) == 3
    skel_row = lines[1].split(",")
    # (0.5, 0.5) sits on a level-3 frame boundary: fields are blanked
    assert skel_row[-1] == "1"
    assert skel_row[4] == "" and skel_row[5] == "" and skel_row[6] == ""
    plain_row = lines[2].split(",")
    assert plain_row[-1] == "0"
    assert float(plain_row[6]) >= 1.0


def test_map_json_nulls_on_skeleton(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,0.5\n")
    code, out, _ = run_cli(["map", str(pts), "--format", "json"], capsys)
    assert code == 0
    row = json.loads(out)["results"]["rows"][0]
    assert row["skeleton"] is True
    assert row["dnorm"] is None and row["jac"] is None and row["K"] is None
    assert isinstance(row["level"], int)


def test_map_default_sampling_deterministic(capsys):
    code, out1, _ = run_cli(["map", "--samples", "100"], capsys)
    assert code == 0
    assert len(out1.strip().split("\n")) == 101
    _, out2, _ = run_cli(["map", "--samples", "100"], capsys)
    assert out1 == out2


def test_map_bad_points_file(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.5\n")
    code, _, err = run_cli(["map", str(pts)], capsys)
    assert code == 2 and "error:" in err


def reference_map_output(argv):
    """map's output built row by row from numpy scalars, as a reference.

    Every row is a list (CSV) or a dict (JSON) of numpy scalars, written
    by csv.writer or by json.dumps(doc, indent=2, sort_keys=True); the
    command's column-at-a-time writers must reproduce these bytes.
    """
    args = build_parser().parse_args(argv)
    if args.points is not None:
        pts = _read_points(args.points)
    else:
        pts = np.random.default_rng(args.seed).random((args.samples, 2))
    f = fields_batch(pts, args.depth, ConstructionParams(args.sigma, args.beta))
    img, skel = f["image"], f["on_skeleton"]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x", "y", "fx", "fy", "dnorm", "jac", "K", "skeleton"])
        for i in range(len(pts)):
            if skel[i]:
                dn = jc = kk = ""
            else:
                dn, jc, kk = f["derivative_norm"][i], f["jacobian"][i], f["distortion"][i]
            writer.writerow(
                [pts[i, 0], pts[i, 1], img[i, 0], img[i, 1], dn, jc, kk, int(skel[i])]
            )
        return buf.getvalue()
    rows = []
    for i in range(len(pts)):
        on_skel = bool(skel[i])
        rows.append(
            {
                "x": pts[i, 0],
                "y": pts[i, 1],
                "fx": img[i, 0],
                "fy": img[i, 1],
                "dnorm": None if on_skel else f["derivative_norm"][i],
                "jac": None if on_skel else f["jacobian"][i],
                "K": None if on_skel else f["distortion"][i],
                "skeleton": on_skel,
                "level": int(f["level"][i]),
            }
        )
    doc = {"params": vars(args), "results": {"rows": rows}, "checks": []}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


EDGE_POINTS = "x,y\n0.5,0.5\n0.0,0.0\n\n1.0,1.0\n5e-324,1e-05\n0.9999999999999999,0.0001\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("source", ["samples", "edge_file"])
def test_map_bytes_match_reference(fmt, source, tmp_path, capsys):
    if source == "samples":
        argv = ["map", "--samples", "2000", "--seed", "7", "--format", fmt]
    else:
        pts = tmp_path / "pts.csv"
        pts.write_text(EDGE_POINTS)
        argv = ["map", str(pts), "--format", fmt]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.encode() == reference_map_output(argv).encode()
    # uniform samples miss the skeleton and every edge point is on it,
    # so the two sources compare both row layouts
    on_skel = source == "edge_file"
    if fmt == "csv":
        assert {line[-1] for line in out.splitlines()[1:]} == {"01"[on_skel]}
    else:
        assert {row["skeleton"] for row in json.loads(out)["results"]["rows"]} == {on_skel}


# the level-14 center 1/16 + sigma^3/4 + ... + sigma^13/4 at sigma = 0.1, formed
# by the walk's own float steps: at depth 14, the resolvable depth at this
# sigma, the point lies in a depth-14 square, whose similarity Jacobian is 5.3e18
DEEP_POINT = "0.06277777777777499,0.06277777777777499"
DEEP = ["--sigma", "0.1", "--depth", "14"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_map_bytes_match_reference_at_the_resolvable_depth(fmt, tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text(DEEP_POINT + "\n")
    argv = ["map", str(pts), *DEEP, "--format", fmt]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == reference_map_output(argv)
    assert (",5.348875285015836e+18," if fmt == "csv" else '"jac": 5.348875285015836e+18') in out
    argv[5] = "15"
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: level-15 is past what doubles resolve at sigma=0.1, beta=2.0")


def test_map_json_no_rows(capsys):
    argv = ["map", "--samples", "0", "--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == reference_map_output(argv)
    assert '"rows": []' in out and json.loads(out)["results"]["rows"] == []


B = _ROW_BLOCK


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 17])
def test_map_bytes_match_reference_across_row_blocks(n, fmt, capsys):
    argv = ["map", "--samples", str(n), "--seed", "11", "--format", fmt]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.encode() == reference_map_output(argv).encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_map_special_rows_after_a_block_edge(fmt, tmp_path, capsys):
    # skeleton rows and the depth-14 square row of DEEP_POINT, Jacobian
    # 5.3e18 at sigma = 0.1, all sit in the second row block
    uniform = np.random.default_rng(3).random((B + 1, 2)).tolist()
    deep = tuple(map(float, DEEP_POINT.split(",")))
    special = [(0.5, 0.5), deep, (0.0, 0.0), deep]
    lines = ["x,y"] + [f"{x!r},{y!r}" for x, y in uniform + special + uniform[:5]]
    pts = tmp_path / "pts.csv"
    pts.write_text("\n".join(lines) + "\n")
    argv = ["map", str(pts), *DEEP, "--format", fmt]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.encode() == reference_map_output(argv).encode()
    if fmt == "csv":
        rows = out.splitlines()[1:]
        assert rows[B + 1].endswith(",,,,1") and ",5.348875285015836e+18," in rows[B + 2]
    else:
        rows = json.loads(out)["results"]["rows"]
        assert rows[B + 1]["K"] is None and rows[B + 2]["jac"] == 5.348875285015836e+18
        assert '"K": null' in out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_map_fields_epilogue_does_not_warn(fmt, tmp_path, capsys):
    # the point is not in a frame, so the frame-map lanes are never
    # computed; its Jacobian is the similarity's at the resolvable depth
    pts = tmp_path / "pts.csv"
    pts.write_text(DEEP_POINT + "\n")
    argv = ["map", str(pts), *DEEP, "--format", fmt]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert out == reference_map_output(argv)
    if fmt == "csv":
        assert out.splitlines()[1] == (
            "0.06277777777777499,0.06277777777777499,0.11113928749639004,0.11113928749639004,"
            "2312763560.1193295,5.348875285015836e+18,1.0,0"
        )


# a field past csv's 131,072-character limit: 200,000 digits on line 2,
# and a quote on line 3 that runs on to the end of the file
OVERSIZED_FIELD = "x,y\n0.25," + "1234567890" * 20_000 + "\n"
UNTERMINATED_QUOTE = 'x,y\n0.25,0.5\n"0.125,0.75\n' + "0.5,0.5\n" * 20_000

FAILING_COMMANDS = {
    "nan_on_last_row": ("x,y\n0.25,0.25\n0.5,0.75\n0.5,nan\n", ["--depth", "6"]),
    "bad_row_2": ("x,y\n0.5\n0.25,0.25\n", ["--depth", "6"]),
    "oversized_field": (OVERSIZED_FIELD, ["--depth", "6"]),
    "unterminated_quote": (UNTERMINATED_QUOTE, ["--depth", "6"]),
    "underflowing_depth": (None, ["--sigma", "1e-6", "--samples", "3", "--depth", "54"]),
    "construct_cap": (None, ["--depth", "5", "--cap", "256"]),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(FAILING_COMMANDS))
def test_failed_command_leaves_output_untouched(case, fmt, tmp_path, capsys):
    points, flags = FAILING_COMMANDS[case]
    argv = ["construct" if case == "construct_cap" else "map"]
    if points is not None:
        (tmp_path / "pts.csv").write_text(points)
        argv.append(str(tmp_path / "pts.csv"))
    target = tmp_path / "out.txt"
    before = b"earlier output\n\x00kept byte for byte\n"
    target.write_bytes(before)
    code, out, err = run_cli(argv + flags + ["--format", fmt, "--out", str(target)], capsys)
    assert code == 2 and out == "" and err.startswith("error:")
    assert target.read_bytes() == before


def reference_read_points(path: str) -> np.ndarray:
    """The points reader as it was when each row became a two-float list,
    naming a bad record, or one with a field past csv's size limit, by
    the physical line it starts on."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        lineno = 1
        try:
            for row in reader:
                if row and "".join(row).strip():
                    try:
                        rows.append([float(row[0]), float(row[1])])
                    except (ValueError, IndexError):
                        if lineno != 1:  # else a header row
                            raise ValueError(f"bad point at {path}:{lineno}: {row!r}")
                lineno = reader.line_num + 1
        except csv.Error as exc:
            raise ValueError(f"bad point at {path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"no points found in {path}")
    return np.array(rows)


READ_POINTS_CASES = {
    "header": "x,y\n0.25,0.5\n0.125,0.75\n",
    "no_header": "0.25,0.5\n0.125,0.75\n",
    "quoted": '"x","y"\n"0.25","0.5"\n"0.125",0.75\n',
    "quoted_newline": '"0.25\n",0.5\n"1\n2",0.5\n',
    "crlf": "x,y\r\n0.25,0.5\r\n\r\n0.125,0.75\r\n",
    "bare_cr": "x,y\r0.25,0.5\r0.125,0.75\r",
    "blank_rows": "\n0.25,0.5\n   \n,\n , \n\t,\n0.125,0.75\n\n",
    "header_after_blank": "\nx,y\n0.25,0.5\n",
    "bad_row_1": "0.25\n0.125,0.75\n",
    "bad_row_2": "0.25,0.5\nx,y\n",
    "short_row_2": "x,y\n0.5\n",
    "half_blank_row": "x,y\n0.5, \n",
    "extra_columns": "x,y,z\n0.25,0.5,0.9,w\n0.125,0.75,,\n",
    "underscores": "1_0,0.2_5\n",
    "signs": "+.5,-0.\n+0.25,.75\n",
    "leading_spaces": "  0.25,  0.5\n\t0.125 ,0.75\t\n",
    "specials": "nan,inf\n-inf,1e400\n5e-324,1e-320\n",
    "repr_digits": "0.1,0.30000000000000004\n0.9999999999999999,2.220446049250313e-16\n",
    "empty": "",
    "header_only": "x,y\n",
    "blank_only": "\n \n,\n",
    # files numpy's reader, if it took them, would read unlike the csv loop
    "quoted_numeric_row_1": '"0.25","0.5"\n0.125,0.75\n',
    "quote_across_lines_in_column_3": '0.25,0.5,"note\n0.75,0.125,"\n0.5,0.5\n',
    "ascii_separator": "x,y\n0.25\x1f,0.5\n",
    "hash_in_row_2": "x,y\n#0.25,0.5\n",
    "oversized_field": OVERSIZED_FIELD,
    "unterminated_quote": UNTERMINATED_QUOTE,
}


def assert_reads_as_reference(path):
    """_read_points(path) gives reference_read_points's array, to the
    bytes, dtype, shape and C order, or raises its error message; it
    issues no warning."""
    try:
        want = reference_read_points(str(path))
    except ValueError as exc:
        with pytest.raises(ValueError) as got, warnings.catch_warnings():
            warnings.simplefilter("error")
            _read_points(str(path))
        assert str(got.value) == str(exc)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _read_points(str(path))
    assert (got.dtype, got.shape, got.flags.c_contiguous) == (want.dtype, want.shape, True)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", sorted(READ_POINTS_CASES))
def test_read_points_matches_reference(case, tmp_path):
    path = tmp_path / "pts.csv"
    path.write_bytes(READ_POINTS_CASES[case].encode())
    assert_reads_as_reference(path)


@pytest.mark.parametrize("case, line", [("oversized_field", 2), ("unterminated_quote", 3)])
def test_read_points_names_the_line_of_an_oversized_field(case, line, tmp_path):
    path = tmp_path / "pts.csv"
    path.write_bytes(READ_POINTS_CASES[case].encode())
    with pytest.raises(ValueError) as got:
        _read_points(str(path))
    assert str(got.value) == f"bad point at {path}:{line}: field larger than field limit (131072)"


_FLOAT_TEXT = st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda v: "%g" % v),
    st.sampled_from(["nan", "-inf", "1e400", "-1e400", "5e-324", "1e-310", "+.5", "-0.", " 1 "]),
)
# fields the csv loop and numpy's reader may read apart, or not at all
_ODD_FIELD = st.sampled_from([
    "", " ", "\t", "x", "y", '"0.25"', '"x"', '"', '"1\n2"', '"\n0.75,0.125,"', '"a,b"',
    "#", "#0.5", "0.5#",
    "1_0", "\u0663", "\u0663.\u0665", "1\x1f", "\x1c0.5", "\xa00.5", "0x10", "1e", "\x00",
])
_DATA_LINE = st.lists(_FLOAT_TEXT, min_size=2, max_size=3).map(",".join)
_ODD_LINES = st.one_of(
    st.lists(st.one_of(_FLOAT_TEXT, _ODD_FIELD), max_size=4).map(",".join),
    st.tuples(_FLOAT_TEXT, _ODD_FIELD, st.booleans()).map(
        lambda t: f"{t[0]},{t[1]}" if t[2] else f"{t[1]},{t[0]}"
    ),
)
_LINE_1 = st.sampled_from(["x,y", '"x","y"', '"0.25","0.5"', "x", "", " ", ",", "0.25,0.5"])


@st.composite
def _points_texts(draw):
    """CSV text of two-float rows, which numpy's reader takes, with up to
    two odd rows put in (headers, blank, quoted, short, long rows, odd
    fields), maybe a first line from _LINE_1, and LF, CR or CRLF ends."""
    lines = draw(st.lists(_DATA_LINE, max_size=8))
    for line in draw(st.lists(_ODD_LINES, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    if draw(st.booleans()):
        lines.insert(0, draw(_LINE_1))
    ends = draw(st.lists(st.sampled_from(["\n", "\r", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(map("".join, zip(lines, ends)))
    return text[: -len(ends[-1])] if lines and draw(st.booleans()) else text


@settings(max_examples=600, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_points_texts())
@example(text="x,y\n0.25,0.5\n0.125,0.75\n")
@example(text='"0.25","0.5"\n0.125,0.75\n')
@example(text='0.25,0.5,"\n0.125,0.75,"\n')
@example(text="x,y\n0.25,0.5\n#\n")
@example(text="0.25,0.5\r\n\r\n1\x1f,2\r\n")
def test_read_points_matches_reference_on_generated_text(text, tmp_path):
    path = tmp_path / "pts.csv"
    path.write_bytes(text.encode())
    assert_reads_as_reference(path)


def test_read_points_names_the_line_a_bad_record_starts_on(tmp_path):
    # the bad record "1\n2",0.5 is the second record and starts on line 3
    path = tmp_path / "pts.csv"
    path.write_bytes(READ_POINTS_CASES["quoted_newline"].encode())
    with pytest.raises(ValueError, match=r"pts\.csv:3: \['1\\n2', '0\.5'\]$"):
        _read_points(str(path))


@pytest.mark.parametrize("n", [0, 1, B + 1])
@pytest.mark.parametrize(
    "template, sep",
    [(_MAP_CSV_ROW, ""), (_MAP_JSON_ROW, ",\n"), (_CONSTRUCT_CSV_ROW, ""),
     (_CONSTRUCT_JSON_CELL, ",\n")],
)
def test_fill_rows_is_the_template_filled_per_row(template, sep, n):
    values = ["%", ",", "", "%s", "%%", "0.5", "-1e-05", "null", '"', "\n"]
    width = template.count("%s")
    cols = [[values[(7 * i + 3 * j) % len(values)] for i in range(n)] for j in range(width)]
    want = sep.join(template % row for row in zip(*cols))
    assert _fill_rows(template, sep, [iter(col) for col in cols]) == want


def test_float_column_spells_values_as_json_and_csv_do():
    values = np.array([0.1, -0.0, 5e-324, 1e16, 1e-5, math.inf, -math.inf, math.nan])
    assert _float_column(values, as_json=True) == [json.dumps(v) for v in values.tolist()]
    assert _float_column(values, as_json=False) == [str(v) for v in values]


@pytest.mark.parametrize("point", ["nan,0.5", "0.5,nan", "inf,0.5", "-0.1,0.5"])
def test_map_rejects_nan_and_outside_points(point, tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text(f"x,y\n0.25,0.25\n{point}\n")
    code, out, err = run_cli(["map", str(pts)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "unit square" in err


@pytest.mark.parametrize("depth", ["54", "60"])
def test_map_underflowing_depth_is_a_domain_error(depth, capsys):
    code, out, err = run_cli(["map", "--sigma", "1e-6", "--samples", "3", "--depth", depth], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "sigma=1e-06" in err


def test_map_negative_samples_is_a_domain_error(capsys):
    code, out, err = run_cli(["map", "--samples", "-1"], capsys)
    assert code == 2 and out == ""
    assert err == "error: --samples must be >= 0, got -1\n"


def test_series_overflowing_limit_is_a_domain_error(capsys):
    # every level's ratio here is a finite double, and the limit is not
    argv = ["series", "subexp", "--sigma", "0.001", "--beta", "1", "--p", "1", "--k-max", "100000"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exp(998.0)" in err


def test_series_ratios_to_level_1e12_match_their_oracle(capsys):
    code, out, err = run_cli(["series", "subexp", "--k-max", "1000000000000", "--format", "json"], capsys)
    assert code == 0 and err == ""
    terms = json.loads(out)["results"]["terms"]
    assert terms[-1]["k"] == 10**12
    for term in terms:
        # every level is past T_k = alpha at sigma = 0.45, beta = 2
        exact = 4 * Decimal(0.45) ** 2 * exact_gain_ratio(term["k"], 0.45, 2.0, 0.5)
        assert abs(Decimal(term["ratio"]) - exact) <= 4 * Decimal(math.ulp(float(exact)))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["series", "subexp", "--k-max", str(10**400)], "--k-max must be <= 1.79769e+308, got "),
        (["measure", "--k-max", str(10**400)], "--k-max must be <= 1.79769e+308, got "),
        (["series", "tv", "--k-max", str(10**320)], "--k-max must be <= 1.79769e+308, got "),
    ],
    ids=["subexp_1e400", "measure_1e400", "tv_1e320"],
)
def test_levels_past_double_range_are_domain_errors(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: " + message) and err.count("\n") == 1


def test_series_tv_past_9e307_matches_its_oracle(capsys):
    """At k = 1e308, where the count's exponent 2 (k - 1) is past the
    largest double, the log term (k - 1) (2 log 2) + pf is a finite double
    that matches the decimal oracle.  Its parts, the largest
    2 (k - 1) log 2 = 1.4e308, cancel to -1.05e307, so it carries their
    rounding: within 4 ulp of 1.4e308 (it is 0.5 of that, 8.5 ulp of its own)."""
    code, out, err = run_cli(["series", "tv", "--k-max", str(10**308), "--format", "json"], capsys)
    assert code == 0 and err == ""
    last = json.loads(out)["results"]["terms"][-1]
    assert last["k"] == 10**308
    exact = exact_tv_log_term(10**308, 0.45, 2.0)
    assert abs(Decimal(last["log_term"]) - exact) <= 4 * Decimal(math.ulp(1.4e308))


def test_series_tv_level3_at_tiny_sigma_matches_its_oracle(capsys):
    """At sigma = 1e-300 the level-3 frame is a grid cell less a square of
    side 1e-900: its log term is finite and within 4 ulp of the decimal
    oracle, and its ratio, exactly about 1e-899, underflows to 0.0."""
    argv = ["series", "tv", "--sigma", "1e-300", "--k-min", "3", "--format", "json"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    first = json.loads(out)["results"]["terms"][0]
    assert first["k"] == 3
    exact = 4 * Decimal(2).ln() + exact_tv_integral(3, 1e-300, 2.0).ln()
    assert abs(Decimal(first["log_term"]) - exact) <= 4 * Decimal(math.ulp(float(exact)))
    assert first["ratio"] == 0.0 and exact_tv_ratio(3, 1e-300, 2.0) < Decimal("1e-898")


@pytest.mark.parametrize("k_max", [10**15, 10**200, 10**8])
def test_series_grid_ends_at_k_min_and_k_max(k_max, capsys):
    """The level grid runs from --k-min to --k-max exactly, each level
    once: exp(log k_max) rounds to 999999999999999 at 1e15, and past
    1e200 at 1e200."""
    code, out, _ = run_cli(["series", "tv", "--k-max", str(k_max)], capsys)
    assert code == 0
    levels = [int(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
    assert levels[0] == 1000 and levels[-1] == k_max
    assert levels == sorted(set(levels)) and len(levels) == 25


def test_series_csv_and_verdict_flip(capsys):
    p0 = p_threshold(ConstructionParams(0.45, 2.0))
    code, out, _ = run_cli(["series", "subexp", "--p", str(0.9 * p0)], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,log_term,ratio,verdict"
    assert len(lines) >= 20
    assert lines[1].split(",")[-1] == "convergent"

    _, out, _ = run_cli(["series", "subexp", "--p", str(1.1 * p0)], capsys)
    assert out.strip().split("\n")[1].split(",")[-1] == "divergent"


def test_series_json_schema(capsys):
    code, out, _ = run_cli(["series", "tv", "--format", "json"], capsys)
    assert code == 0
    res = json.loads(out)["results"]
    assert set(res) == {
        "kind", "p", "margin", "p_threshold", "limit_ratio", "verdict", "terms"
    }
    assert res["kind"] == "tv" and res["p"] is None
    assert res["verdict"] == "convergent"
    term = res["terms"][0]
    assert set(term) == {"k", "count_log2", "log_per_frame", "log_term", "ratio"}


def test_measure_json_schema(capsys):
    code, out, _ = run_cli(["measure"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc["results"]) == {"m", "at_k", "lower_bound", "first_admissible_k"}
    assert doc["results"]["at_k"] == 3
    assert len(doc["checks"]) == 3
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_measure_csv(capsys):
    code, out, _ = run_cli(["measure", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "beta_prime,k,log_sum,verdict"
    # three gauge exponents, four decade levels each
    assert len(lines) == 1 + 3 * 4


def test_measure_flags_unexpected_trend(capsys):
    code, out, _ = run_cli(
        ["measure", "--gauge-beta", "2.0", "--k-min", "3", "--k-max", "30"], capsys
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"][0]["status"] == "fail"


@pytest.mark.parametrize("k_min", ["0", "-5"])
def test_measure_rejects_k_min_below_3(k_min, capsys):
    for fmt in ("csv", "json"):
        code, out, err = run_cli(["measure", "--k-min", k_min, "--format", fmt], capsys)
        assert code == 2 and out == ""
        assert err == f"error: --k-min must be at least 3, got {k_min}\n"


def test_measure_overflowing_mass_bound_is_a_domain_error(capsys):
    argv = ["measure", "--beta", "10000", "--k-min", "3", "--k-max", "1000", "--gauge-beta", "10000"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: mass bound exp(min log-sum)") and "overflows" in err


def test_measure_huge_k_max_stops_early(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(["measure", "--k-max", "1000000000000"], capsys)
    elapsed = time.perf_counter() - start
    assert code == 0
    res = json.loads(out)["results"]
    m, at_k, lower_bound, first = brute_mass_bound(ConstructionParams(0.45, 2.0), 10**6)
    assert (res["m"], res["at_k"], res["lower_bound"], res["first_admissible_k"]) == (
        m, at_k, lower_bound, first
    )
    assert elapsed < 1.0


def test_verify_json_single_documented_failure(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["results"]["passed"] is False
    assert doc["results"]["failed"] == 1
    failing = [c for c in doc["checks"] if c["status"] == "fail"]
    assert len(failing) == 1
    assert failing[0]["name"] == "gain_ratio_limit[sigma=0.25,beta=2.0,p=2.0]"


def test_verify_output_reproducible(capsys):
    _, out1, _ = run_cli(["verify"], capsys)
    _, out2, _ = run_cli(["verify"], capsys)
    assert out1 == out2


def test_render_svg_output(tmp_path, capsys):
    target = tmp_path / "map.svg"
    code, out, _ = run_cli(
        ["render", "--depth", "3", "--samples", "4", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("<svg ") and text.endswith("</svg>\n")
    _, stdout, _ = run_cli(["render", "--depth", "3", "--samples", "4"], capsys)
    assert stdout == text


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["unknowncmd"])


FLAGS = {
    "construct": {"sigma", "beta", "depth", "format", "out", "cap"},
    "map": {"points", "sigma", "beta", "depth", "seed", "samples", "format", "out"},
    "series": {"kind", "sigma", "beta", "p", "k_min", "k_max", "tol", "format", "out"},
    "measure": {"sigma", "beta", "gauge_beta", "k_min", "k_max", "format", "out"},
    "verify": {"sigma", "beta", "seed", "format", "out", "debug_literal_radii"},
    "render": {"sigma", "beta", "depth", "samples", "cap", "out"},
}


def _subparsers():
    return next(a for a in build_parser()._actions if a.dest == "command").choices


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_each_command_takes_only_the_flags_it_reads(command):
    dests = {a.dest for a in _subparsers()[command]._actions if a.dest != "help"}
    assert dests == FLAGS[command]


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--depth", "3"],
        ["map", "--samples", "3"],
        ["series", "tv"],
        ["measure", "--k-max", "10000"],
        ["verify", "--seed", "7"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_params_echo_exactly_the_command_flags(argv, capsys):
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code in (0, 1)
    params = json.loads(out)["params"]
    assert set(params) == FLAGS[argv[0]] | {"command"}
    assert params["command"] == argv[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--depth", "7"],
        ["series", "--depth", "7"],
        ["render", "--format", "json"],
        ["construct", "--seed", "1"],
        ["measure", "--p", "1"],
        ["map", "--cap", "5"],
        ["verify", "--sigma", "0.3"],
        ["verify", "--beta", "1"],
    ],
    ids=" ".join,
)
def test_flags_a_command_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv,unread",
    [
        (["series", "--depth", "7"], "--depth 7"),
        (["map", "--cap", "5"], "--cap 5"),
        (["map", "--cap", "5", "pts.csv"], "--cap 5"),
        (["series", "tv", "--gauge-beta", "1", "2", "--p", "1"], "--gauge-beta 1 2"),
        (["verify", "--depth", "7"], "--depth 7"),
        (["series", "--debug-literal-radii", "tv"], "--debug-literal-radii"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_a_flag_the_command_does_not_take_is_named_with_its_values(argv, unread, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"cantormap: error: unrecognized arguments: {unread}\n")


def test_verify_accepts_its_pinned_sigma_and_beta(capsys):
    _, plain, _ = run_cli(["verify"], capsys)
    code, pinned, _ = run_cli(["verify", "--sigma", "0.45", "--beta", "2.0"], capsys)
    assert code == 1
    plain, pinned = json.loads(plain), json.loads(pinned)
    assert (pinned["results"], pinned["checks"]) == (plain["results"], plain["checks"])


NON_FINITE_INPUTS = [
    ["series", "subexp", "--p", "nan"],
    ["series", "subexp", "--p", "inf"],
    ["series", "subexp", "--tol", "nan"],
    ["series", "subexp", "--beta", "inf"],
    ["map", "--beta", "inf", "--samples", "3"],
    ["construct", "--beta", "inf"],
    ["measure", "--gauge-beta", "inf", "--format", "csv"],
    ["measure", "--gauge-beta", "nan"],
]


@pytest.mark.parametrize("argv", NON_FINITE_INPUTS, ids=" ".join)
def test_non_finite_inputs_are_domain_errors(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "must be finite and" in err


PAST_39 = (
    "is past what doubles resolve at sigma=0.45, beta=2.0: the resolvable depth is 39,"
    " the deepest d whose levels k <= d all have center steps sigma^k/4 and l_k/4 above k 2^-53"
)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["map", "--depth", "61", "--samples", "3"], f"level-61 {PAST_39}"),
        (["construct", "--depth", "61"], f"level-61 {PAST_39}"),
        (["render", "--depth", "61"], f"level-61 {PAST_39}"),
    ],
    ids=["map", "construct", "render"],
)
def test_depth_past_the_library_limit_is_a_domain_error(argv, message, capsys):
    # every depth past the resolvable depth, 39 at the default parameters
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# (sigma, beta, resolvable depth); 2 where not even level 3 resolves
GATE_DEPTHS = [
    (0.45, 2.0, 39), (0.25, 2.0, 23), (0.1, 2.0, 14), (0.01, 2.0, 7), (0.49, 1.0, 44),
    (0.45, 50.0, 13), (0.25, 900.0, 2), (1e-06, 2.0, 2),
]


@pytest.mark.parametrize("sigma, beta, depth", GATE_DEPTHS)
def test_map_exits_0_at_the_resolvable_depth_and_2_past_it(sigma, beta, depth, capsys):
    argv = ["map", "--sigma", repr(sigma), "--beta", repr(beta), "--samples", "100", "--depth"]
    if depth >= 3:
        code, out, err = run_cli(argv + [str(depth)], capsys)
        assert code == 0 and err == "" and len(out.splitlines()) == 101
    code, out, err = run_cli(argv + [str(max(depth + 1, 3))], capsys)
    assert code == 2 and out == ""
    resolved = f"the resolvable depth is {depth}," if depth >= 3 else "no depth is resolvable"
    assert err.startswith(f"error: level-{max(depth + 1, 3)} is past what doubles resolve"
                          f" at sigma={sigma}, beta={beta}: {resolved}")


def test_map_points_file_past_depth_limit(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.25,0.25\n")
    code, out, err = run_cli(["map", str(pts), "--depth", "200"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: level-200 {PAST_39}\n"


PAST_DOUBLE_RANGE = [
    (["series", "subexp", "--sigma", "1e-6", "--k-min", "4", "--k-max", "100"],
     "level-4 term ratio exp("),
    (["series", "subexp", "--sigma", "0.1", "--beta", "1e6", "--k-min", "4", "--k-max", "100"],
     "level-4 sup distortion overflows double precision"),
    # T_3 = expm1((beta/2) log log 3) overflows
    (["series", "subexp", "--sigma", "0.1", "--beta", "1e6", "--k-min", "3", "--k-max", "5",
      "--p", "1e-300"], "level-3 sup distortion overflows double precision"),
    # gain_ratio is resolved up to level 1e100
    (["series", "subexp", "--k-max", str(10**101)],
     f"level-{10**101} term ratio is past 1e100, the deepest gain_ratio level"),
    # l_3 rounds to 1/8, so R' - r' = 1/16 - l_3/2 rounds to 0
    (["map", "--sigma", "0.1", "--beta", "1e-300", "--samples", "3"],
     "level-3 frame is degenerate in double precision at sigma=0.1, beta=1e-300"),
    # the level-3 image side underflows, so no depth is resolvable
    (["map", "--sigma", "0.1", "--beta", "1e6", "--samples", "3"],
     "level-6 is past what doubles resolve at sigma=0.1, beta=1000000.0: no depth is resolvable"),
    # sigma^3 / 4 = 2.5e-19 is below 3 u
    (["map", "--sigma", "1e-6", "--depth", "30", "--samples", "3"],
     "level-30 is past what doubles resolve at sigma=1e-06, beta=2.0: no depth is resolvable"),
    (["render", "--sigma", "0.1", "--beta", "1e6", "--depth", "4"],
     "level-4 is past what doubles resolve at sigma=0.1, beta=1000000.0: no depth is resolvable"),
    (["render", "--sigma", "0.1", "--beta", "1e6", "--depth", "4", "--samples", "0"],
     "level-4 is past what doubles resolve at sigma=0.1, beta=1000000.0: no depth is resolvable"),
    (["construct", "--sigma", "0.1", "--beta", "1e6", "--depth", "4", "--format", "json"],
     "level-4 is past what doubles resolve at sigma=0.1, beta=1000000.0: no depth is resolvable"),
    # the CSV reads only the pre-image family, and the gate reads both
    (["construct", "--sigma", "1e-30", "--depth", "11"],
     "level-11 is past what doubles resolve at sigma=1e-30, beta=2.0: no depth is resolvable"),
]


@pytest.mark.parametrize("argv,message", PAST_DOUBLE_RANGE, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_parameters_past_double_range_are_domain_errors(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: level") and message in err
    assert "series_terms" not in err and err.count("\n") == 1
