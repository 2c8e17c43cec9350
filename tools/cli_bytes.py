"""Compare the CLI's output at a git revision with the working tree's.

    python3 tools/cli_bytes.py --parent REV

Run it from the root of the repository.  The parent side is
``git archive REV`` unpacked into a temporary directory; the change side
is the working tree.  Both sides run the same fixed plan of commands as
``python3 -m cantormap.cli ARGS``, with ``PYTHONPATH`` set to that side's
``src/``, from one scratch directory that holds the plan's input files.
Commands with ``--out`` find their output file holding a sentinel before
each run.  For every command the tool compares stdout, stderr, the exit
code and the output file's bytes, prints one line per command, a diff
of any differing stderr and, for a differing stdout or output file, the
first line that differs on each side and, when both sides parse as JSON
objects, which of their top-level keys (``params``, ``results``,
``checks``) differ; it exits 1 when anything differs.

The plan covers every subcommand, ``verify`` at two seeds, ``measure``
in CSV and JSON on a scan whose check fails (two levels that are one
double, exit 1 in both formats), ``measure`` at gauge exponents near the
construction's own and at beta = 50 (exit 0), ``series``
ratios out to level 1e12 (subexp) and 1e15 and 1e200 (tv), at sigma near 1/2,
from level 3 and on pre-asymptotic subexp levels (T_k >= alpha),
``render`` with no mesh and with a mesh of many evaluation blocks, ``map`` in CSV
and JSON at depths 6 and 32 on a points file, on samples and on no
samples, sample counts on either side of the row-block size of
``map``'s writer, skeleton rows and a square row at the resolvable depth
of sigma = 0.1 after a block edge, a points file that only the csv loop of ``map``'s reader
reads (quoted cells and an underscore), and failing commands that must
leave an existing output file as it was: among them a ``#`` in a data
row and fields past csv's size limit.  Its last entries are usage and domain errors (exit 2):
a flag each command does not read, a ``verify`` parameter other than
the one its suite pins, non-finite numeric inputs, depths one past the
resolvable depth (39 at the defaults, 14 at sigma = 0.1) or at
parameters that resolve no depth, parameters whose series terms,
distortion sups or frames leave double precision, a series level past
the 1e100 the gain ratio resolves, and
``--k-max`` levels of 309 to 401 digits, past the largest double or
with a term count 4^k whose exponent is.
Two ``map`` runs among them ask for pre-asymptotic levels at beta = 800
and 3000, whose image steps no longer move the image centers, and are
refused.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_pairs import unpack

ROOT = Path(__file__).resolve().parent.parent
SENTINEL = b"output of an earlier run\n"
SHOWN_CHARS = 200
EDGE_POINTS = "x,y\n0.5,0.5\n0.0,0.0\n\n1.0,1.0\n5e-324,1e-05\n0.9999999999999999,0.0001\n"
# the resolvable depth at this sigma: the next depth is refused
DEEP = ["--sigma", "0.1", "--depth", "14"]
# the level-14 center at sigma = 0.1, formed by the walk's own float steps
DEEP_POINT = "0.06277777777777499,0.06277777777777499"
UNRESOLVED_SCAN = ["measure", "--gauge-beta", "2.000000000001", "--k-min", str(10**17),
                   "--k-max", str(10**17 + 1)]


def _row_block() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from cantormap.cli import _ROW_BLOCK

    return _ROW_BLOCK


def _points(rng: random.Random, n: int) -> list[str]:
    return [f"{rng.random()!r},{rng.random()!r}" for _ in range(n)]


def _points_file(rows: list[str]) -> str:
    return "\n".join(["x,y", *rows]) + "\n"


def _inputs(block: int) -> dict[str, str]:
    """The plan's input files by name, the same bytes on every run."""
    rng = random.Random(20100603)
    special = ["0.5,0.5", DEEP_POINT, "0.0,0.0", DEEP_POINT]
    return {
        "points.csv": _points_file(_points(rng, 5000)),
        "edge.csv": EDGE_POINTS,
        "deep.csv": DEEP_POINT + "\n",
        "after_edge.csv": _points_file(_points(rng, block + 1) + special + _points(rng, 5)),
        "nan_last.csv": "x,y\n0.25,0.25\n0.5,0.75\n0.5,nan\n",
        "bad_row_2.csv": "x,y\n0.5\n0.25,0.25\n",
        # numpy's reader refuses the quotes and the underscore: csv reads it
        "csv_only.csv": _points_file(['"0.25","0.5"', "0.2_5,0.75", '0.125,"0.375"', "0.5,0.5"]),
        "hash_row.csv": "x,y\n0.25,0.5\n#0.5,0.5\n",
        # fields past csv's 131,072-character limit
        "oversized_field.csv": "x,y\n0.25," + "1234567890" * 20_000 + "\n",
        "unterminated_quote.csv": 'x,y\n0.25,0.5\n"0.125,0.75\n' + "0.5,0.5\n" * 20_000,
    }


def _plan(block: int) -> list[tuple[str, list[str]]]:
    plan = [
        ("verify_json", ["verify"]),
        ("verify_csv", ["verify", "--format", "csv"]),
        ("verify_literal", ["verify", "--debug-literal-radii"]),
        ("verify_seed7", ["verify", "--seed", "7"]),
        ("construct_d8_json", ["construct", "--depth", "8", "--format", "json"]),
        ("construct_d8_csv", ["construct", "--depth", "8"]),
        ("construct_half_json", ["construct", "--sigma", "0.49999999999999994", "--format", "json"]),
        ("construct_d6_csv", ["construct", "--depth", "6"]),
        ("render_d7", ["render", "--depth", "7"]),
        ("render_d4_samples200", ["render", "--depth", "4", "--samples", "200"]),
        ("render_d5_no_mesh", ["render", "--depth", "5", "--samples", "0"]),
        ("measure_json", ["measure", "--k-max", "100000000"]),
        ("measure_csv", ["measure", "--k-max", "100000000", "--format", "csv"]),
        ("measure_beta50_json", ["measure", "--beta", "50"]),
        ("measure_gauge_beta_0_2_csv", ["measure", "--gauge-beta", "0", "2", "--format", "csv"]),
        ("measure_k_max_1e18", ["measure", "--k-max", "1000000000000000000", "--gauge-beta", "2"]),
        # levels 1e17 and 1e17 + 1 are one double: beta' != beta reads "mixed",
        # and its check fails (exit 1)
        ("measure_failing_check_csv", [*UNRESOLVED_SCAN, "--format", "csv"]),
        ("measure_failing_check_json", [*UNRESOLVED_SCAN, "--format", "json"]),
        # gauge exponents near the construction's own, and a large own beta
        ("measure_beta_2_05_json", ["measure", "--beta", "2.05"]),
        ("measure_beta_4_2_csv", ["measure", "--beta", "4.2", "--format", "csv"]),
        ("measure_gauge_beta_near_2_json",
         ["measure", "--gauge-beta", "1.9", "1.99", "2", "2.01", "2.1"]),
        ("measure_beta50_gauge_beta50_csv",
         ["measure", "--beta", "50", "--gauge-beta", "50", "--format", "csv"]),
        ("series_subexp_json", ["series", "subexp", "--format", "json"]),
        ("series_tv", ["series", "tv"]),
        ("series_subexp_k_max_1e8", ["series", "subexp", "--k-max", "100000000"]),
        ("series_subexp_k_max_1e9", ["series", "subexp", "--k-max", "1000000000"]),
        ("series_subexp_k_max_1e12", ["series", "subexp", "--k-max", "1000000000000"]),
        ("series_tv_k_max_1e15", ["series", "tv", "--k-max", "1000000000000000"]),
        ("series_tv_k_max_1e200", ["series", "tv", "--k-max", str(10**200)]),
        ("series_tv_sigma_0_4999", ["series", "tv", "--sigma", "0.4999"]),
        ("series_tv_k_3_to_10", ["series", "tv", "--k-min", "3", "--k-max", "10"]),
        # levels 3 to 15 are pre-asymptotic at sigma = 0.49
        ("series_subexp_sigma_0_49_k_3_to_100",
         ["series", "subexp", "--sigma", "0.49", "--k-min", "3", "--k-max", "100"]),
        ("series_subexp_beta50_k_3_to_1000",
         ["series", "subexp", "--beta", "50", "--k-min", "3", "--k-max", "1000"]),
        ("map_edge_file_json", ["map", "edge.csv", "--format", "json"]),
    ]
    for depth in ("6", "32"):
        for fmt in ("csv", "json"):
            plan.append((f"map_d{depth}_{fmt}", ["map", "--depth", depth, "--format", fmt]))
            plan.append((f"map_file_d{depth}_{fmt}",
                         ["map", "points.csv", "--depth", depth, "--format", fmt]))
    for fmt in ("csv", "json"):
        plan.append((f"map_no_samples_{fmt}", ["map", "--samples", "0", "--format", fmt]))
        for n in (1, block - 1, block, block + 1, 2 * block + 17):
            plan.append((f"map_samples_{n}_{fmt}",
                         ["map", "--samples", str(n), "--seed", "11", "--format", fmt]))
        plan.append((f"map_after_edge_{fmt}", ["map", "after_edge.csv", *DEEP, "--format", fmt]))
        plan.append((f"map_deep_{fmt}", ["map", "deep.csv", *DEEP, "--format", fmt]))
        plan.append((f"map_file_out_{fmt}", ["map", "points.csv", "--format", fmt, "--out", "out"]))
        plan.append((f"map_nan_last_row_{fmt}",
                     ["map", "nan_last.csv", "--format", fmt, "--out", "out"]))
        plan.append((f"map_bad_row_2_{fmt}",
                     ["map", "bad_row_2.csv", "--format", fmt, "--out", "out"]))
        plan.append((f"map_csv_only_{fmt}", ["map", "csv_only.csv", "--format", fmt]))
        for name in ("hash_row", "oversized_field", "unterminated_quote"):
            plan.append((f"map_{name}_{fmt}",
                         ["map", f"{name}.csv", "--format", fmt, "--out", "out"]))
        plan.append((f"map_underflow_{fmt}", ["map", "--sigma", "1e-6", "--samples", "3",
                                              "--depth", "54", "--format", fmt, "--out", "out"]))
        plan.append((f"construct_cap_{fmt}", ["construct", "--depth", "5", "--cap", "256",
                                              "--format", fmt, "--out", "out"]))
    rejected = [
        ["verify", "--depth", "7"], ["series", "--depth", "7"], ["render", "--format", "json"],
        ["construct", "--seed", "1"], ["measure", "--p", "1"], ["map", "--cap", "5"],
        ["verify", "--sigma", "0.3"], ["verify", "--beta", "1"],
        ["series", "subexp", "--p", "nan"], ["series", "subexp", "--p", "inf"],
        ["series", "subexp", "--tol", "nan"], ["series", "subexp", "--beta", "inf"],
        ["map", "--beta", "inf", "--samples", "3"], ["construct", "--beta", "inf"],
        ["measure", "--gauge-beta", "inf", "--format", "csv"], ["measure", "--gauge-beta", "nan"],
        ["map", "--depth", "61", "--samples", "3"], ["map", "points.csv", "--depth", "61"],
        ["map", "--depth", "40", "--samples", "3"], ["map", "--sigma", "0.1", "--depth", "15"],
        ["map", "--sigma", "0.25", "--beta", "900", "--depth", "12"],
        ["construct", "--sigma", "0.01", "--depth", "8"],
    ]
    plan += [("rejected_" + "_".join(a.lstrip("-") for a in cmd), cmd) for cmd in rejected]
    past_range = [
        ["series", "subexp", "--sigma", "1e-6", "--k-min", "4", "--k-max", "100"],
        ["series", "subexp", "--sigma", "0.1", "--beta", "1e6", "--k-min", "4", "--k-max", "100"],
        ["series", "subexp", "--sigma", "0.1", "--beta", "1e6", "--k-min", "3", "--k-max", "5",
         "--p", "1e-300"],
        ["series", "subexp", "--k-max", str(10**101)],
        ["series", "tv", "--sigma", "1e-300", "--k-min", "3"],
        ["map", "--sigma", "0.1", "--beta", "1e-300", "--samples", "3"],
        ["map", "--sigma", "0.1", "--beta", "1e6", "--samples", "3"],
        ["map", "--sigma", "0.25", "--beta", "800", "--depth", "5", "--samples", "3"],
        ["map", "--sigma", "0.49", "--beta", "3000", "--depth", "3", "--samples", "3"],
        ["map", "--sigma", "1e-6", "--depth", "30", "--samples", "3"],
        ["render", "--sigma", "0.1", "--beta", "1e6", "--depth", "4"],
        ["render", "--sigma", "0.1", "--beta", "1e6", "--depth", "4", "--samples", "0"],
        ["construct", "--sigma", "0.1", "--beta", "1e6", "--depth", "4", "--format", "json"],
        ["construct", "--sigma", "1e-30", "--depth", "11"],
    ]
    plan += [("past_range_" + "_".join(a.lstrip("-") for a in cmd), cmd) for cmd in past_range]
    # levels past the largest double, named by their digit counts
    huge = [("series_subexp_k_max_1e400", ["series", "subexp", "--k-max", str(10**400)]),
            ("measure_k_max_1e400", ["measure", "--k-max", str(10**400)]),
            ("series_tv_k_max_1e320", ["series", "tv", "--k-max", str(10**320)]),
            ("series_tv_k_max_1e308", ["series", "tv", "--k-max", str(10**308)])]
    plan += [("past_range_" + name, cmd) for name, cmd in huge]
    return plan


def _run(src: Path, work: Path, argv: list[str]) -> dict:
    out = work / "out"
    out.write_bytes(SENTINEL)
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "cantormap.cli", *argv], cwd=work, env=env,
                          capture_output=True)
    # a warning names the file it comes from: spell both sides' sources as src
    stderr = proc.stderr.replace(str(src).encode(), b"src")
    return {"stdout": proc.stdout, "stderr": stderr, "exit code": proc.returncode,
            "out file": out.read_bytes()}


def _first_line_diff(was: bytes, now: bytes) -> str:
    """The first differing line of two outputs, numbered from 1, with
    both sides cut to SHOWN_CHARS and quoted, line end included; a
    line-by-line scan, not a diff, so it stays cheap on the 18.8 MB
    construct document."""
    old, new = was.splitlines(keepends=True), now.splitlines(keepends=True)
    n = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))

    def shown(lines: list[bytes]) -> str:
        if n >= len(lines):
            return f"<no line {n + 1}: {len(lines)} lines>"
        return repr(lines[n].decode(errors="replace")[:SHOWN_CHARS])

    return f"line {n + 1}\n  - parent: {shown(old)}\n  + change: {shown(new)}\n"


def _json_keys_differ(was: bytes, now: bytes) -> list[str] | None:
    """The top-level keys whose values differ, when both outputs parse
    as JSON objects; None otherwise.  NaN and the infinities are read as
    their spellings, so equal documents compare equal."""
    try:
        old, new = (json.loads(b, parse_constant=str) for b in (was, now))
    except ValueError:
        return None
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return None
    missing = object()
    return [k for k in sorted(old.keys() | new.keys()) if old.get(k, missing) != new.get(k, missing)]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    args = ap.parse_args(argv)

    block = _row_block()
    plan = _plan(block)
    differ = 0
    with tempfile.TemporaryDirectory(prefix="cli_bytes_") as tmp:
        parent, work = Path(tmp) / "parent", Path(tmp) / "work"
        unpack(args.parent, parent)
        work.mkdir()
        for name, text in _inputs(block).items():
            (work / name).write_text(text)
        for name, cmd in plan:
            was, now = _run(parent / "src", work, cmd), _run(ROOT / "src", work, cmd)
            diffs = [key for key in was if was[key] != now[key]]
            differ += bool(diffs)
            exit_codes = now["exit code"]
            if "exit code" in diffs:
                exit_codes = f"{was['exit code']} -> {now['exit code']}"
            print(f"{'DIFF' if diffs else 'same'}  {name}: cantormap {' '.join(cmd)}"
                  + (f"  [{', '.join(diffs)}]" if diffs else "")
                  + f"  (exit {exit_codes}, {len(now['stdout'])} stdout bytes)", flush=True)
            if "stderr" in diffs:
                sys.stdout.writelines(difflib.unified_diff(
                    was["stderr"].decode(errors="replace").splitlines(keepends=True),
                    now["stderr"].decode(errors="replace").splitlines(keepends=True),
                    "parent stderr", "change stderr"))
            for key in ("stdout", "out file"):
                if key in diffs:
                    print(f"  {key} first differs at " + _first_line_diff(was[key], now[key]),
                          end="", flush=True)
                    keys = _json_keys_differ(was[key], now[key])
                    if keys is not None:
                        print(f"  {key} JSON keys that differ: {', '.join(keys) or 'none'}",
                              flush=True)
    print(f"{differ} of {len(plan)} commands differ from {args.parent}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
