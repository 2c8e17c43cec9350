"""Command line around the construction, map, series, and gauges.

Each subcommand takes only the flags it reads (see build_parser),
emits CSV or a JSON document {params, results, checks} whose params
are exactly those flags' values, and is deterministic: the same flags
(seed included) produce byte-identical output.  Exit codes: 0 success,
1 failed verification, 2 bad arguments or domain errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
import warnings
from dataclasses import asdict
from typing import Iterable, Iterator, Optional

import numpy as np

from .analysis import p_threshold, series_terms
from .construction import (
    DEFAULT_CELL_CAP,
    MIN_LEVEL,
    ConstructionParams,
    axis_centers,
    cell_axis_indices,
    image_side,
    preimage_side,
    validate_geometry,
)
from .mapping import fields_batch
from .measure import mass_distribution_bound, threshold_scan
from .render import render_svg
from .verify import run_verification

# Each flag's spec.  A subcommand registers only the flags its cmd_*
# reads, so the JSON params block, vars(args), is what the run used.
_FLAGS = {
    "--sigma": dict(type=float, default=0.45, help="pre-image contraction, in (0, 1/2)"),
    "--beta": dict(type=float, default=2.0, help="image-side log haircut exponent, finite, > 0"),
    "--depth": dict(type=int, default=6, help="truncation depth, in [3, the resolvable depth]"),
    "--p": dict(type=float, default=0.5, help="sub-exponential gauge exponent, finite, > 0"),
    "--gauge-beta": dict(type=float, nargs="+", default=[1.0, 2.0, 4.0], help="scan exponents beta'"),
    "--k-min": dict(type=int, default=1000, help="smallest level of level sweeps"),
    "--k-max": dict(type=int, default=1000000, help="largest level of level sweeps"),
    "--seed": dict(type=int, default=0x5EED, help="seed for all sampling"),
    "--samples": dict(type=int, default=10000, help="uniform sample size; read only without a points file"),
    "--tol": dict(type=float, default=1e-3, help="series verdict margin, finite, > 0"),
    "--format": dict(choices=("csv", "json"), default="csv", help="output format"),
    "--out": dict(default="-", help="output path, - for stdout"),
    "--cap": dict(type=int, default=DEFAULT_CELL_CAP, help="cell enumeration cap"),
    "--debug-literal-radii": dict(
        action="store_true", help="use the rejected literal image radii (breaks gluing; a demo)"
    ),
}


def _add_flags(sp: argparse.ArgumentParser, flags: str, **changes: dict) -> None:
    """Register the space-separated flags on sp as _FLAGS specs them;
    changes maps a flag's dest to the keywords that differ on sp."""
    for flag in flags.split():
        sp.add_argument(flag, **{**_FLAGS[flag], **changes.get(flag[2:].replace("-", "_"), {})})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantormap",
        description="planar Cantor families joined by a sup-norm stretch map",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("construct", help="emit the level-k cells of the construction")
    _add_flags(sp, "--sigma --beta --depth --format --out --cap")
    sp = sub.add_parser("map", help="evaluate the stretch map and its fields at points")
    sp.add_argument("points", nargs="?", default=None, help="CSV of x,y points; default: seeded uniform sample")
    no_file = dict(help="seed of the uniform sample; read only without a points file")
    _add_flags(sp, "--sigma --beta --depth --seed --samples --format --out", seed=no_file)
    sp = sub.add_parser("series", help="grouped series terms and convergence verdicts")
    sp.add_argument("kind", nargs="?", choices=("tv", "subexp"), default="subexp", help="which series")
    _add_flags(sp, "--sigma --beta --p --k-min --k-max --tol --format --out")
    sp = sub.add_parser("measure", help="covering-sum scans and the mass-distribution bound")
    _add_flags(sp, "--sigma --beta --gauge-beta --k-min --k-max --format --out", format=dict(default="json"))
    sp = sub.add_parser("verify", help="run the pinned acceptance suite")
    # The suite pins its own parameters and reads neither --sigma nor
    # --beta.  They stay only because perfbench's CLI workload passes
    # --sigma 0.45 --beta 2.0 to every command: those exact values parse,
    # and any other is a usage error (exit 2), not a value echoed unused.
    pinned = "accepted only at this value; the suite pins its own parameters"
    _add_flags(
        sp, "--sigma --beta --seed --format --out --debug-literal-radii",
        sigma=dict(choices=(0.45,), help=pinned), beta=dict(choices=(2.0,), help=pinned),
        format=dict(default="json"),
    )
    sp = sub.add_parser("render", help="SVG of the warped mesh and image squares")
    mesh = dict(default=64, help="mesh lines per axis, 0 for none")
    _add_flags(sp, "--sigma --beta --depth --samples --cap --out", samples=mesh)
    return parser


def _unread_flags(sp: argparse.ArgumentParser, args: list[str]) -> list[str]:
    """The flags of _FLAGS in args that sp does not take, each followed
    by the values its spec reads.  Left to argparse, such a flag's value
    can fill an optional positional: "series --depth 7" read 7 as the
    series kind, and "map --cap 5" read 5 as the points file."""
    unread, values = [], 0
    for tok in args:
        if tok in _FLAGS and tok not in sp._option_string_actions:
            spec = _FLAGS[tok]
            unread.append(tok)
            values = 0 if "action" in spec else math.inf if "nargs" in spec else 1
        elif values and not tok.startswith("--"):
            unread.append(tok)
            values -= 1
        else:
            values = 0
    return unread


def _emit(parts: Iterable[str], out: str) -> None:
    """Write the parts in order to out, - for stdout.

    Commands call it only once every check has passed, so a failed
    command leaves stdout empty and an existing --out file as it was.
    The parts may be a generator: a table is then formatted and written
    one block of rows at a time, and the whole document never exists
    as one string.
    """
    if out == "-":
        sys.stdout.writelines(parts)
    else:
        with open(out, "w") as fh:
            fh.writelines(parts)


# rows formatted per write: a block's strings stay small however many
# rows the table has
_ROW_BLOCK = 1 << 12


def _blocks(n: int) -> Iterator[slice]:
    """Slices of n rows, _ROW_BLOCK at a time."""
    return (slice(lo, lo + _ROW_BLOCK) for lo in range(0, n, _ROW_BLOCK))


def _fill_rows(template: str, sep: str, cols: list[Iterable[str]]) -> str:
    """sep.join(template % row for row in zip(*cols)), for a template whose
    only conversions are %s.

    Each row is one "".join of the template's pieces around its %s
    interleaved with the row's values: a third to a half of the time a
    % per row takes.
    """
    pieces = template.split("%s")
    args = [itertools.repeat(pieces[0])]
    for col, piece in zip(cols, pieces[1:], strict=True):
        args += (col, itertools.repeat(piece))
    return sep.join(map("".join, zip(*args)))


def _json_table(doc: str, key: str, blocks: Iterator[str]) -> Iterator[str]:
    """doc with its list results[key] filled in from blocks of rows.

    doc is written with results[key] == [], its only empty list in the
    last top-level key; each block holds rows laid out as json.dumps(doc,
    indent=2, sort_keys=True) lays out entries of that list, joined by
    ",\n".  With no blocks the list stays [], as json.dumps writes it.
    """
    first = next(blocks, None)
    if first is None:
        yield doc
        return
    head, _, tail = doc.rpartition(f'"{key}": []')
    yield f'{head}"{key}": [\n'
    yield first
    for block in blocks:
        yield ",\n"
        yield block
    yield f"\n    ]{tail}"


def _json_doc(args: argparse.Namespace, results: dict, checks: list) -> str:
    doc = {"params": vars(args), "results": results, "checks": checks}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _check_level_range(k_min: int, k_max: int) -> None:
    if k_min < MIN_LEVEL:
        raise ValueError(f"--k-min must be at least {MIN_LEVEL}, got {k_min}")
    if k_max < k_min:
        raise ValueError(f"--k-max must be >= --k-min, got {k_max} < {k_min}")
    if k_max > sys.float_info.max:
        raise ValueError(f"--k-max must be <= {sys.float_info.max:.6g}, got {len(str(k_max))} digits")


def _geometric_levels(k_min: int, k_max: int, num: int) -> list[int]:
    """k_min, k_max and the num - 2 levels spaced evenly in log between them:
    exp(log k) need not round back to k, so neither end comes from exp."""
    _check_level_range(k_min, k_max)
    if k_min == k_max or num < 2:
        return [k_min]
    lo, hi = math.log(k_min), math.log(k_max)
    inner = (round(math.exp(lo + j * (hi - lo) / (num - 1))) for j in range(1, num - 1))
    return sorted({k_min, k_max} | {k for k in inner if k_min < k < k_max})


def _at(col: list[str], index: list[int]) -> Iterator[str]:
    """col[i] for each i in index."""
    return map(col.__getitem__, index)


_CONSTRUCT_CSV_ROW = "%s,%s,%s,%s,%s,%s\n"
# One entry of results.cells as json.dumps(doc, indent=2, sort_keys=True)
# lays it out, keys in sorted order.
_CONSTRUCT_JSON_CELL = (
    "      {\n"
    '        "ax0_path": "%s",\n'
    '        "ax1_path": "%s",\n'
    '        "image_center": [\n'
    "          %s,\n"
    "          %s\n"
    "        ],\n"
    '        "level": %s,\n'
    '        "pre_center": [\n'
    "          %s,\n"
    "          %s\n"
    "        ]\n"
    "      }"
)


def cmd_construct(args: argparse.Namespace) -> int:
    params = ConstructionParams(args.sigma, args.beta)
    k = args.depth
    i0, i1 = cell_axis_indices(k, params, cap=args.cap)
    pre, paths = axis_centers(k, params, image=False)
    pre = list(map(repr, pre.tolist()))
    side = preimage_side(k, params)
    level = itertools.repeat(str(k))
    cell_blocks = ((i0[sl].tolist(), i1[sl].tolist()) for sl in _blocks(len(i0)))
    if args.format == "csv":
        side_col = itertools.repeat(repr(side))
        body = (
            _fill_rows(_CONSTRUCT_CSV_ROW, "", [
                level, _at(paths, a), _at(paths, b), _at(pre, a), _at(pre, b), side_col,
            ])
            for a, b in cell_blocks
        )
        header = _csv_text(["level", "ax0_path", "ax1_path", "cx", "cy", "side"], [])
        _emit(itertools.chain((header,), body), args.out)
        return 0
    report = validate_geometry(min(k, 10), params)
    img = list(map(repr, axis_centers(k, params, image=True)[0].tolist()))
    body = (
        _fill_rows(_CONSTRUCT_JSON_CELL, ",\n", [
            _at(paths, a), _at(paths, b), _at(img, a), _at(img, b), level, _at(pre, a), _at(pre, b),
        ])
        for a, b in cell_blocks
    )
    results = {
        "level": k,
        "count": len(i0),
        "pre_side": side,
        "image_side": image_side(k, params),
        "cells": [],
    }
    checks = [
        {
            "name": "geometry_invariants",
            "status": "pass" if report.passed else "fail",
            "measured": f"{len(report.violations)} violations in {report.checks_run} checks",
            "target": "0 violations",
        }
    ]
    _emit(_json_table(_json_doc(args, results, checks), "cells", body), args.out)
    return 0 if report.passed else 1


# A file holding any of these goes to the csv loop: a quote can carry a
# record over line ends that numpy's reader takes as row ends, even in a
# column it does not read, and numpy's float parser takes the ASCII
# separators \x1c-\x1f as whitespace where float() refuses them.
_CSV_ONLY_CHARS = '"\x1c\x1d\x1e\x1f'


def _loadtxt_can_read(fh) -> bool:
    """Whether numpy's reader reads the text file fh as the csv loop
    does, where it reads it at all: fh holds none of _CSV_ONLY_CHARS, and
    no line that could hold a field past csv's size limit.

    fh is read in chunks of half the limit: a line past the limit fills
    one whole chunk, so a full chunk with no line end refuses the file.
    """
    size = csv.field_size_limit() // 2
    while chunk := fh.read(size):
        if any(c in chunk for c in _CSV_ONLY_CHARS) or (len(chunk) == size and "\n" not in chunk):
            return False
    return True


def _loadtxt_points(fh) -> Optional[np.ndarray]:
    """The points of the seekable text file fh by numpy's C reader, or
    None where it cannot match the csv loop of _read_points.

    Line 1 is skipped exactly where that loop skips it: when it does not
    hold two floats.  loadtxt raises on any other row that is not two
    floats, as on blank-comma rows, underscores and non-ASCII digits,
    and warns on a file with no rows.
    """
    if not (fh.seekable() and _loadtxt_can_read(fh)):
        return None
    fh.seek(0)
    row = next(csv.reader([fh.readline()]), [])
    try:
        float(row[0]), float(row[1])
        header = 0
    except (ValueError, IndexError):
        header = 1
    fh.seek(0)
    return np.loadtxt(fh, delimiter=",", usecols=(0, 1), comments=None, ndmin=2,
                      skiprows=header)


def _read_points(path: str) -> np.ndarray:
    """The x,y points of the CSV file at path as an (n, 2) float64 array.

    Blank records are skipped, and so is a first record that is not two
    floats (a header).  numpy's C reader takes the file where it can;
    the csv loop takes every file it refuses, and alone names a bad
    record or an empty file.
    """
    try:
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = _loadtxt_points(fh)
    except (ValueError, Warning):  # loadtxt refuses the file, or it is not text
        pts = None
    return _csv_points(path) if pts is None else pts


def _csv_points(path: str) -> np.ndarray:
    """_read_points by the csv module, one record at a time."""
    xs, ys = [], []
    add_x, add_y = xs.append, ys.append
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        end = 0  # physical lines read through the previous record
        try:
            for row in reader:
                start, end = end + 1, reader.line_num
                try:
                    x, y = float(row[0]), float(row[1])
                except (ValueError, IndexError):
                    # float() fails on every blank or all-whitespace row
                    if not row or not "".join(row).strip() or start == 1:
                        continue  # blank row or header row
                    raise ValueError(f"bad point at {path}:{start}: {row!r}")
                add_x(x)
                add_y(y)
        except csv.Error as exc:  # a field past csv's size limit
            raise ValueError(f"bad point at {path}:{end + 1}: {exc}") from None
    if not xs:
        raise ValueError(f"no points found in {path}")
    return np.column_stack((xs, ys))


_MAP_CSV_ROW = "%s,%s,%s,%s,%s,%s,%s,%s\n"
# One entry of results.rows as json.dumps(doc, indent=2, sort_keys=True)
# lays it out, keys in sorted order.
_MAP_JSON_ROW = (
    "      {\n"
    '        "K": %s,\n'
    '        "dnorm": %s,\n'
    '        "fx": %s,\n'
    '        "fy": %s,\n'
    '        "jac": %s,\n'
    '        "level": %s,\n'
    '        "skeleton": %s,\n'
    '        "x": %s,\n'
    '        "y": %s\n'
    "      }"
)
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_column(values: np.ndarray, as_json: bool) -> list[str]:
    """Each value as Python's shortest round-trip repr.

    These are the digits str(np.float64) prints and json writes; only
    json spells the non-finite values differently.
    """
    col = list(map(repr, values.tolist()))
    if as_json:
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            col[i] = _JSON_NONFINITE[col[i]]
    return col


def _map_columns(pts: np.ndarray, f: dict, as_json: bool) -> list[list[str]]:
    """The formatted x, y, fx, fy, dnorm, jac and K columns of a map.

    The derivative fields are blank (CSV) or null (JSON) on the
    skeleton, where the derivative exists only one-sidedly.
    """
    blank = "null" if as_json else ""
    img = f["image"]
    cols = [_float_column(v, as_json) for v in (pts[:, 0], pts[:, 1], img[:, 0], img[:, 1])]
    skel_rows = np.flatnonzero(f["on_skeleton"]).tolist()
    for name in ("derivative_norm", "jacobian", "distortion"):
        col = _float_column(f[name], as_json)
        for i in skel_rows:
            col[i] = blank
        cols.append(col)
    return cols


def _map_rows(pts: np.ndarray, f: dict, as_json: bool) -> Iterator[str]:
    """map's rows, one string per block of _ROW_BLOCK points.

    A CSV block is its lines; a JSON block is its row objects joined
    by ",\n", for _json_table to splice into the document.
    """
    flag = ("false", "true") if as_json else ("0", "1")
    for sl in _blocks(len(pts)):
        fb = {key: col[sl] for key, col in f.items()}
        x, y, fx, fy, dn, jac, kk = _map_columns(pts[sl], fb, as_json)
        flags = [flag[s] for s in fb["on_skeleton"].tolist()]
        if as_json:
            level = map(str, fb["level"].tolist())
            yield _fill_rows(_MAP_JSON_ROW, ",\n", [kk, dn, fx, fy, jac, level, flags, x, y])
        else:
            yield _fill_rows(_MAP_CSV_ROW, "", [x, y, fx, fy, dn, jac, kk, flags])


def cmd_map(args: argparse.Namespace) -> int:
    params = ConstructionParams(args.sigma, args.beta)
    if args.points is not None:
        pts = _read_points(args.points)
    else:
        if args.samples < 0:
            raise ValueError(f"--samples must be >= 0, got {args.samples}")
        rng = np.random.default_rng(args.seed)
        pts = rng.random((args.samples, 2))
    f = fields_batch(pts, args.depth, params)
    as_json = args.format == "json"
    rows = _map_rows(pts, f, as_json)
    if as_json:
        _emit(_json_table(_json_doc(args, {"rows": []}, []), "rows", rows), args.out)
    else:
        header = _csv_text(["x", "y", "fx", "fy", "dnorm", "jac", "K", "skeleton"], [])
        _emit(itertools.chain((header,), rows), args.out)
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    params = ConstructionParams(args.sigma, args.beta)
    levels = _geometric_levels(args.k_min, args.k_max, num=25)
    diag = series_terms(args.kind, levels, params, p=args.p, margin=args.tol)
    if args.format == "csv":
        rows = [
            [t.level, t.log_term, r, diag.verdict]
            for t, r in zip(diag.terms, diag.ratios)
        ]
        _emit((_csv_text(["k", "log_term", "ratio", "verdict"], rows),), args.out)
        return 0
    results = {
        "kind": diag.kind,
        "p": diag.p,
        "margin": diag.margin,
        "p_threshold": p_threshold(params),
        "limit_ratio": diag.limit_ratio,
        "verdict": diag.verdict,
        "terms": [
            {
                "k": t.level,
                "count_log2": t.count_log2,
                "log_per_frame": t.log_per_frame,
                "log_term": t.log_term,
                "ratio": r,
            }
            for t, r in zip(diag.terms, diag.ratios)
        ],
    }
    _emit((_json_doc(args, results, []),), args.out)
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    params = ConstructionParams(args.sigma, args.beta)
    _check_level_range(args.k_min, args.k_max)
    decades = int(round(math.log10(args.k_max / args.k_min))) + 1
    levels = _geometric_levels(args.k_min, args.k_max, num=max(decades, 2))
    table = threshold_scan(args.gauge_beta, levels, params)
    checks = []
    for bp in sorted(table.verdicts):
        if bp < params.beta:
            want = "decreasing"
        elif bp == params.beta:
            want = "stationary"
        else:
            want = "growing"
        got = table.verdicts[bp]
        checks.append(
            {
                "name": f"scan[beta_prime={bp}]",
                "status": "pass" if got == want else "fail",
                "measured": got,
                "target": want,
            }
        )
    if args.format == "csv":
        rows = [
            [row.beta_prime, row.level, row.log_sum, table.verdicts[row.beta_prime]]
            for row in table.rows
        ]
        _emit((_csv_text(["beta_prime", "k", "log_sum", "verdict"], rows),), args.out)
        return 0
    rep = mass_distribution_bound(params, k_max=args.k_max)
    results = {
        "m": rep.m,
        "at_k": rep.at_k,
        "lower_bound": rep.lower_bound,
        "first_admissible_k": rep.first_admissible_k,
    }
    _emit((_json_doc(args, results, checks),), args.out)
    return 0 if all(c["status"] == "pass" for c in checks) else 1


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(seed=args.seed, literal=args.debug_literal_radii)
    if args.format == "csv":
        rows = [
            [c.criterion, c.name, c.status, c.measured, c.target]
            for c in report.checks
        ]
        _emit((_csv_text(["criterion", "name", "status", "measured", "target"], rows),), args.out)
    else:
        results = {
            "passed": report.passed,
            "total": len(report.checks),
            "failed": sum(1 for c in report.checks if not c.passed),
        }
        _emit((_json_doc(args, results, [asdict(c) for c in report.checks]),), args.out)
    return 0 if report.passed else 1


def cmd_render(args: argparse.Namespace) -> int:
    params = ConstructionParams(args.sigma, args.beta)
    svg = render_svg(params, depth=args.depth, grid=args.samples, cap=args.cap)
    _emit((svg,), args.out)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    commands = next(a for a in parser._actions if a.dest == "command").choices
    unread = _unread_flags(commands[argv[0]], argv[1:]) if argv and argv[0] in commands else []
    if unread:
        parser.error(f"unrecognized arguments: {' '.join(unread)}")
    args = parser.parse_args(argv)
    handlers = {
        "construct": cmd_construct,
        "map": cmd_map,
        "series": cmd_series,
        "measure": cmd_measure,
        "verify": cmd_verify,
        "render": cmd_render,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
