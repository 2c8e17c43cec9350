"""Compare the CLI's output at a git revision with the working tree's.

    python3 tools/cli_bytes.py --parent REV

Run it from the root of the repository.  The parent side is
``git archive REV`` unpacked into a temporary directory; the change side
is the working tree.  Both sides run the same fixed plan of commands as
``python3 -m cantormap.cli ARGS``, with ``PYTHONPATH`` set to that side's
``src/``, from one scratch directory that holds the plan's input files.
Commands with ``--out`` find their output file holding a sentinel before
each run.  For every command the tool compares stdout, stderr, the exit
code and the output file's bytes, prints one line per command and a
diff of any differing stderr, and exits 1 when anything differs.

The plan covers every subcommand, ``verify`` at two seeds, ``render``
with no mesh and with a mesh of many evaluation blocks, ``map`` in CSV
and JSON at depths 6 and 32 on a points file, on samples and on no
samples, sample counts on either side of the row-block size of
``map``'s writer, skeleton rows and an infinite Jacobian after a block
edge, and failing commands that must leave an existing output file as
it was.
"""

from __future__ import annotations

import argparse
import difflib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_pairs import unpack

ROOT = Path(__file__).resolve().parent.parent
SENTINEL = b"output of an earlier run\n"
EDGE_POINTS = "x,y\n0.5,0.5\n0.0,0.0\n\n1.0,1.0\n5e-324,1e-05\n0.9999999999999999,0.0001\n"
DEEP = ["--sigma", "1e-6", "--depth", "30"]


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
    special = ["0.5,0.5", "0.0625,0.0625", "0.0,0.0", "0.0625,0.0625"]
    return {
        "points.csv": _points_file(_points(rng, 5000)),
        "edge.csv": EDGE_POINTS,
        "deep.csv": "0.0625,0.0625\n",
        "after_edge.csv": _points_file(_points(rng, block + 1) + special + _points(rng, 5)),
        "nan_last.csv": "x,y\n0.25,0.25\n0.5,0.75\n0.5,nan\n",
        "bad_row_2.csv": "x,y\n0.5\n0.25,0.25\n",
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
        ("series_subexp_json", ["series", "subexp", "--format", "json"]),
        ("series_tv", ["series", "tv"]),
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
        plan.append((f"map_underflow_{fmt}", ["map", "--sigma", "1e-6", "--samples", "3",
                                              "--depth", "54", "--format", fmt, "--out", "out"]))
        plan.append((f"construct_cap_{fmt}", ["construct", "--depth", "5", "--cap", "256",
                                              "--format", fmt, "--out", "out"]))
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
            print(f"{'DIFF' if diffs else 'same'}  {name}: cantormap {' '.join(cmd)}"
                  + (f"  [{', '.join(diffs)}]" if diffs else "")
                  + f"  (exit {now['exit code']}, {len(now['stdout'])} stdout bytes)", flush=True)
            if "stderr" in diffs:
                sys.stdout.writelines(difflib.unified_diff(
                    was["stderr"].decode(errors="replace").splitlines(keepends=True),
                    now["stderr"].decode(errors="replace").splitlines(keepends=True),
                    "parent stderr", "change stderr"))
    print(f"{differ} of {len(plan)} commands differ from {args.parent}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
