"""The benchmark's workloads: seeded inputs, timed operations, oracles.

Every workload uses sigma = 0.45 and beta = 2.  An operation is one
call into cantormap, timed as a whole; its oracle runs untimed right
after it and returns the problems it found (an empty list means the
output is right).  CLI commands run in-process through
``cantormap.cli.main`` with ``--out`` pointing at a file, so their times
exclude interpreter start-up, which ``setup_s`` measures on its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from cantormap import cli, mapping
from cantormap.construction import (
    MIN_LEVEL,
    CellAddress,
    ConstructionParams,
    image_square,
    preimage_side,
    preimage_square,
)
from cantormap.measure import mass_distribution_bound

SIGMA = 0.45
BETA = 2.0
RED_CHECK = "gain_ratio_limit[sigma=0.25,beta=2.0,p=2.0]"
VERIFY_CHECKS = 20
SCAN_VERDICTS = {1.0: "decreasing", 2.0: "stationary", 4.0: "growing"}
MAP_DEPTH = 6
FIELD_DEPTH = 32
RENDER_GRID = 64
ORACLE_ROWS = 2_000  # rows, points or cells an oracle recomputes


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, TINY the self-test's."""

    map_points: int = 100_000
    field_points: int = 1_000_000
    scalar_points: int = 20_000
    construct_depth: int = 8
    render_depth: int = 7
    measure_k_max: int = 10**8


TINY = Sizes(
    map_points=300,
    field_points=3_000,
    scalar_points=300,
    construct_depth=4,
    render_depth=4,
    measure_k_max=10**6,
)


@dataclass
class Op:
    """One timed call and the oracle for its output.

    metric names the op's own figure and value() turns its median
    seconds into that figure; bytes_metric, when set, names the count
    of bytes the op wrote to its output file.
    """

    name: str
    span: str
    metric: str
    value: Callable[[float], float]
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    output: Path | None = None
    bytes_metric: str | None = None


@dataclass
class Workload:
    name: str
    inputs: dict
    ops: list[Op] = field(default_factory=list)


def _params(depth: int) -> ConstructionParams:
    # the depth_max the CLI itself uses, so scalar oracles match its runs
    return ConstructionParams(SIGMA, BETA, depth_max=max(depth, 60))


def _cli_op(name, argv, out: Path, check, bytes_metric=None) -> Op:
    full = argv + ["--sigma", repr(SIGMA), "--beta", repr(BETA), "--out", str(out)]
    return Op(
        name=name,
        span=f"cli.{name}",
        metric=f"{name}_s",
        value=lambda s: s,
        run=lambda: cli.main(full),
        check=lambda rc: check(rc, out),
        output=out,
        bytes_metric=bytes_metric or f"cli.{name}.bytes",
    )


def _subsample(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    return np.sort(rng.choice(n, size=min(n, m), replace=False))


def _field_row(fs) -> tuple:
    """Scalar fields as the map command prints them (None on the skeleton)."""
    if fs.on_skeleton:
        return fs.image[0], fs.image[1], None, None, None, True
    return (
        fs.image[0], fs.image[1], fs.derivative_norm, fs.jacobian, fs.distortion, False,
    )


# ---------------------------------------------------------------- map_cli


def _write_points(path: Path, pts: np.ndarray) -> None:
    lines = ["x,y"] + [f"{x!r},{y!r}" for x, y in pts.tolist()]
    path.write_text("\n".join(lines) + "\n")


def map_cli(seed: int, sizes: Sizes, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 0])
    pts = rng.random((sizes.map_points, 2))
    src = workdir / "points.csv"
    _write_points(src, pts)
    depth = MAP_DEPTH
    params = _params(depth)
    rows = _subsample(np.random.default_rng([seed, 1]), len(pts), ORACLE_ROWS)
    scalar = {int(i): mapping.fields(pts[i], depth, params) for i in rows}
    expected = {i: _field_row(fs) for i, fs in scalar.items()}

    def check_csv(rc, out):
        if rc != 0:
            return [f"map csv exited {rc}"]
        lines = out.read_text().splitlines()
        problems = []
        if lines[:1] != ["x,y,fx,fy,dnorm,jac,K,skeleton"]:
            problems.append(f"map csv header {lines[:1]}")
        body = [line.split(",") for line in lines[1:]]
        if len(body) != len(pts):
            return problems + [f"map csv has {len(body)} rows, want {len(pts)}"]
        for i, cols in enumerate(body):
            skel = cols[7] == "1"
            if len(cols) != 8 or skel != (cols[4:7] == ["", "", ""]):
                problems.append(f"map csv row {i}: blanks not exactly on skeleton: {cols}")
                break
        for i, (fx, fy, dn, jac, k, skel) in expected.items():
            cols = body[i]
            got = tuple(float(v) if v else None for v in cols[2:7]) + (cols[7] == "1",)
            if (float(cols[0]), float(cols[1])) != tuple(pts[i]) or got != (fx, fy, dn, jac, k, skel):
                problems.append(f"map csv row {i}: {cols} != scalar fields {expected[i]}")
        return problems

    def check_json(rc, out):
        if rc != 0:
            return [f"map json exited {rc}"]
        got_rows = json.loads(out.read_text())["results"]["rows"]
        if len(got_rows) != len(pts):
            return [f"map json has {len(got_rows)} rows, want {len(pts)}"]
        problems = []
        for i, row in enumerate(got_rows):
            nulls = [row["dnorm"], row["jac"], row["K"]] == [None, None, None]
            if row["skeleton"] != nulls:
                problems.append(f"map json row {i}: nulls not exactly on skeleton: {row}")
                break
        for i, want in expected.items():
            row = got_rows[i]
            got = (row["fx"], row["fy"], row["dnorm"], row["jac"], row["K"], row["skeleton"])
            level = scalar[i].level
            if (row["x"], row["y"]) != tuple(pts[i]) or got != want or row["level"] != level:
                problems.append(f"map json row {i}: {row} != scalar fields {want}")
        return problems

    argv = ["map", str(src), "--depth", str(depth)]
    return Workload(
        "map_cli",
        {"points": len(pts), "depth": depth, "input_bytes": src.stat().st_size},
        [
            _cli_op("map_csv", argv + ["--format", "csv"], workdir / "map.csv", check_csv),
            _cli_op("map_json", argv + ["--format", "json"], workdir / "map.json", check_json),
        ],
    )


# ------------------------------------------------ fields_uniform / _cantor


def cantor_points(seed: int, n: int, depth: int) -> np.ndarray:
    """Points strictly inside seeded level-``depth`` pre-image squares.

    Each axis gets a seeded octant and depth - 3 seeded half choices,
    walked with the same float steps the descent takes, plus an offset
    within 0.9 of the square's half-side, so every point descends all
    levels and lands in no frame.
    """
    rng = np.random.default_rng([seed, 0])
    params = _params(depth)
    pts = np.empty((n, 2))
    for axis in range(2):
        c = (rng.integers(0, 8, n) + 0.5) / 8.0
        for k in range(MIN_LEVEL, depth):
            c = c + np.where(rng.integers(0, 2, n) == 1, 1.0, -1.0) * (preimage_side(k, params) / 4.0)
        half = preimage_side(depth, params) / 2.0
        pts[:, axis] = c + rng.uniform(-0.9, 0.9, n) * half
    return pts


def _fields_workload(
    name: str, pts: np.ndarray, seed: int, sizes: Sizes, full_depth: bool = False
) -> Workload:
    """full_depth: every point must descend to the truncation depth."""
    depth = FIELD_DEPTH
    params = _params(depth)
    rows = _subsample(np.random.default_rng([seed, 1]), len(pts), ORACLE_ROWS)
    scalar_pts = pts[: sizes.scalar_points]
    scalar_ref = mapping.fields_batch(scalar_pts, depth, params)
    n_pts, n_scalar = len(pts), len(scalar_pts)

    def check_evaluate(img):
        if img.shape != (n_pts, 2):
            return [f"evaluate_batch shape {img.shape}"]
        bad = [i for i in rows if tuple(img[i]) != mapping.evaluate(pts[i], depth, params)]
        return [f"evaluate_batch differs from scalar evaluate at rows {bad[:5]}"] if bad else []

    def check_fields(f):
        problems = []
        for i in rows:
            fs = mapping.fields(pts[i], depth, params)
            got = (
                tuple(f["image"][i]), f["level"][i], f["in_frame"][i], f["derivative_norm"][i],
                f["jacobian"][i], f["distortion"][i], f["on_skeleton"][i],
            )
            want = (
                fs.image, fs.level, fs.in_frame, fs.derivative_norm,
                fs.jacobian, fs.distortion, fs.on_skeleton,
            )
            if got != want:
                problems.append(f"fields_batch row {i}: {got} != scalar {want}")
                break
        if full_depth and (np.any(f["level"] != depth) or np.any(f["in_frame"])):
            problems.append("a point inside a depth-level square left the descent early")
        return problems

    def run_scalar():
        return [mapping.fields(p, depth, params) for p in scalar_pts]

    def check_scalar(samples):
        got = np.array([(*s.image, s.level, s.derivative_norm, s.jacobian, s.distortion) for s in samples])
        ref = scalar_ref
        want = np.column_stack(
            [ref["image"], ref["level"], ref["derivative_norm"], ref["jacobian"], ref["distortion"]]
        )
        skel = np.array([s.on_skeleton for s in samples], dtype=bool)
        if not (np.array_equal(got, want) and np.array_equal(skel, ref["on_skeleton"])):
            return ["scalar fields differ from fields_batch on the scalar points"]
        return []

    def per_mpts(n):
        return lambda s: n / s / 1e6

    return Workload(
        name,
        {"points": n_pts, "scalar_points": n_scalar, "depth": depth},
        [
            Op("evaluate_batch", "bench.evaluate_batch", "evaluate_mpts_per_s", per_mpts(n_pts),
               lambda: mapping.evaluate_batch(pts, depth, params), check_evaluate),
            Op("fields_batch", "bench.fields_batch", "fields_mpts_per_s", per_mpts(n_pts),
               lambda: mapping.fields_batch(pts, depth, params), check_fields),
            Op("scalar_fields", "bench.scalar_fields", "scalar_fields_us",
               lambda s: s / n_scalar * 1e6, run_scalar, check_scalar),
        ],
    )


def fields_uniform(seed: int, sizes: Sizes, workdir: Path) -> Workload:
    pts = np.random.default_rng([seed, 0]).random((sizes.field_points, 2))
    return _fields_workload("fields_uniform", pts, seed, sizes)


def fields_cantor(seed: int, sizes: Sizes, workdir: Path) -> Workload:
    pts = cantor_points(seed, sizes.field_points, FIELD_DEPTH)
    return _fields_workload("fields_cantor", pts, seed, sizes, full_depth=True)


# -------------------------------------------------------------- cli_suite


def cli_suite(seed: int, sizes: Sizes, workdir: Path) -> Workload:
    """The heavy CLI commands.  Their inputs are fixed flags and verify
    keeps its pinned seed; the seed picks the construct cells the oracle
    recomputes."""
    cdepth, rdepth = sizes.construct_depth, sizes.render_depth
    params = _params(cdepth)
    cells = _subsample(np.random.default_rng([seed, 1]), 4**cdepth, ORACLE_ROWS)
    brute = mass_distribution_bound(_params(MIN_LEVEL), k_max=10**6)

    def check_construct(rc, out):
        if rc != 0:
            return [f"construct exited {rc}"]
        doc = json.loads(out.read_text())
        res, checks = doc["results"], doc["checks"]
        problems = []
        if res["count"] != 4**cdepth or len(res["cells"]) != 4**cdepth:
            problems.append(f"construct gave {res['count']} / {len(res['cells'])} cells, want {4**cdepth}")
            return problems
        if [(c["name"], c["status"]) for c in checks] != [("geometry_invariants", "pass")]:
            problems.append(f"construct checks {checks}")
        for i in cells:
            cell = res["cells"][i]
            addr = CellAddress.from_axis_paths(cell["ax0_path"], cell["ax1_path"])
            if (
                cell["level"] != cdepth
                or addr.level != cdepth
                or tuple(cell["pre_center"]) != preimage_square(addr, params).center
                or tuple(cell["image_center"]) != image_square(addr, params).center
            ):
                problems.append(f"construct cell {i} disagrees with the squares: {cell}")
                break
        return problems

    rects = 1 + sum(4**k for k in range(MIN_LEVEL, rdepth + 1))
    polylines = 2 * (RENDER_GRID + 1)

    def check_render(rc, out):
        if rc != 0:
            return [f"render exited {rc}"]
        svg = out.read_text()
        got = (svg.count("<rect "), svg.count("<polyline "))
        return [] if got == (rects, polylines) else [f"render drew {got}, want {(rects, polylines)}"]

    def check_verify(rc, out):
        doc = json.loads(out.read_text())
        failed = [c["name"] for c in doc["checks"] if c["status"] != "pass"]
        res = doc["results"]
        if rc != 1 or len(doc["checks"]) != VERIFY_CHECKS or failed != [RED_CHECK] or (res["total"], res["failed"]) != (VERIFY_CHECKS, 1):
            return [f"verify exited {rc} with failures {failed} of {len(doc['checks'])}"]
        return []

    def check_measure(rc, out):
        if rc != 0:
            return [f"measure exited {rc}"]
        doc = json.loads(out.read_text())
        verdicts = {c["name"]: c["measured"] for c in doc["checks"]}
        want = {f"scan[beta_prime={b}]": v for b, v in SCAN_VERDICTS.items()}
        res = doc["results"]
        problems = []
        if verdicts != want or any(c["status"] != "pass" for c in doc["checks"]):
            problems.append(f"measure verdicts {verdicts}")
        if (res["m"], res["at_k"], res["lower_bound"]) != (brute.m, brute.at_k, brute.m / 4.0):
            problems.append(f"measure m={res['m']} at k={res['at_k']}, brute scan to 1e6: {brute.m} at {brute.at_k}")
        return problems

    return Workload(
        "cli_suite",
        {"construct_depth": cdepth, "render_depth": rdepth, "render_grid": RENDER_GRID,
         "measure_k_max": sizes.measure_k_max},
        [
            _cli_op("construct", ["construct", "--depth", str(cdepth), "--format", "json"],
                    workdir / "construct.json", check_construct),
            _cli_op("render", ["render", "--depth", str(rdepth), "--samples", str(RENDER_GRID)],
                    workdir / "render.svg", check_render, bytes_metric="render.bytes"),
            _cli_op("verify", ["verify", "--format", "json"], workdir / "verify.json", check_verify),
            _cli_op("measure", ["measure", "--k-max", str(sizes.measure_k_max), "--format", "json"],
                    workdir / "measure.json", check_measure),
        ],
    )


WORKLOADS = {
    "map_cli": map_cli,
    "fields_uniform": fields_uniform,
    "fields_cantor": fields_cantor,
    "cli_suite": cli_suite,
}
