"""Benchmark a parent commit against the working tree in alternating pairs.

    python3 tools/ab_pairs.py --parent REV --pairs fields_cantor=911-920 \
        --pairs map_cli=921-923 --traced fields_cantor=930 --out BENCH_x.json

Run it from the root of the repository.  The parent side is
``git archive REV`` unpacked into a temporary directory; the change side
is a copy of the working tree's ``src/``, ``perfbench/`` and
``BENCHMARK.json`` in a sibling directory whose name has the same length.
For each workload and seed, one pair runs ``python3 perfbench/run.py
--workload W --seed N --seconds S --trace 0`` once per side, from the
root of that side's directory; even pairs run the parent first, odd
pairs the change.  ``--traced W=SEEDS`` adds ``--trace 1`` pairs, summarized
over the per-layer metrics.

The output file holds every run with its command, and per workload and
end-to-end metric the median, quartiles, minimum and maximum of each
side, the change's wins over its pair partner, the parent's
interquartile range and the median gap (positive when the change is
better).  ``--claim W:METRIC`` records whether the change won at least
9 of every 10 pairs and its median gap exceeds the parent's IQR.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHANGE_PARTS = ("src", "perfbench", "BENCHMARK.json")
QUARTILES = "statistics.quantiles(values, n=4, method='inclusive')"


def _seeds(spec: str) -> list[int]:
    """'911-920' or '901,905,907' to a list of seeds."""
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _workload_spec(text: str) -> tuple[str, list[int]]:
    name, sep, seeds = text.partition("=")
    if not sep or not seeds:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=SEEDS, got {text!r}")
    return name, _seeds(seeds)


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def unpack(rev: str, dest: Path) -> None:
    """Unpack ``git archive REV`` into dest; tools/cli_bytes.py uses it too."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")


def _prepare(tmp: Path, parent_rev: str) -> dict[str, Path]:
    sides = {"parent": tmp / "parent", "change": tmp / "change"}
    unpack(parent_rev, sides["parent"])
    sides["change"].mkdir()
    for part in CHANGE_PARTS:
        src, dst = ROOT / part, sides["change"] / part
        if src.is_dir():
            shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__", ".bench_build"))
        else:
            shutil.copy2(src, dst)
    return sides


def _run(side: str, cwd: Path, workload: str, seed: int, seconds: float, trace: int, pair: int,
         first: str) -> dict:
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{side} {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    run = {"side": side, "seed": seed, "pair": pair, "first": first,
           "command": "python3 " + " ".join(argv), "exit_code": proc.returncode,
           "failed": result["failed"], "attempted": result["attempted"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    run.update(metrics)
    # untraced runs report the end-to-end metrics; traced ones show the op
    # figures (names without a dot) of the ops this workload ran
    shown = metrics if not trace else {
        k: v for k, v in metrics.items() if "." not in k and k != "fail_ratio" and v}
    print(f"  {side:6} seed {seed} trace {trace}: "
          + ", ".join(f"{k}={v:.4g}" for k, v in shown.items()), flush=True)
    return run


def _pair(sides: dict[str, Path], workload: str, seed: int, seconds: float, trace: int,
          pair: int) -> dict[str, dict]:
    order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
    return {side: _run(side, sides[side], workload, seed, seconds, trace, pair, order[0])
            for side in order}


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def _summary(pairs: list[dict[str, dict]], metric: str, lower_better: bool) -> dict:
    parent = [p["parent"][metric] for p in pairs]
    change = [p["change"][metric] for p in pairs]
    ps, cs = _stats(parent), _stats(change)
    wins = sum((c < p) if lower_better else (c > p) for p, c in zip(parent, change))
    gap = ps["median"] - cs["median"]
    return {
        "parent": ps,
        "change": cs,
        "change_over_parent_median": cs["median"] / ps["median"] if ps["median"] else None,
        "change_wins": f"{wins}/{len(pairs)}",
        "parent_iqr": ps["q3"] - ps["q1"],
        "median_gap": gap if lower_better else -gap,
    }


def _machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for mod in ("numpy", "scipy"):
        probe = subprocess.run([sys.executable, "-c", f"import {mod}; print({mod}.__version__)"],
                               capture_output=True, text=True)
        versions[mod] = probe.stdout.strip() or None
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(), **versions}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--pairs", type=_workload_spec, action="append", default=[],
                    metavar="WORKLOAD=SEEDS", help="untraced pairs, e.g. fields_cantor=911-920")
    ap.add_argument("--traced", type=_workload_spec, action="append", default=[],
                    metavar="WORKLOAD=SEEDS", help="--trace 1 pairs")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    ap.add_argument("--what", default="", help="one line describing the change")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    lower_better = {trace: {m["name"]: m["better"] == "lower" for m in bench[key]}
                    for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    parent_commit = _git("rev-parse", args.parent).decode().strip()
    head = _git("rev-parse", "HEAD").decode().strip()
    tool = ["python3", "tools/ab_pairs.py", *(sys.argv[1:] if argv is None else argv)]
    doc = {
        "what": args.what,
        "parent_commit": parent_commit,
        "change": f"working tree on {head}: a copy of {', '.join(CHANGE_PARTS)}",
        "tool": shlex.join(tool),
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace T, run"
                   " from the root of each side's directory (parent: git archive of"
                   " parent_commit)",
        "order": "pairs alternate which side runs first: even pair index parent first,"
                 " odd pair index change first",
        "quartiles": QUARTILES,
        "machine": _machine(),
    }
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        sides = _prepare(Path(tmp), args.parent)
        for key, trace, specs in (("workloads", 0, args.pairs), ("traced", 1, args.traced)):
            doc[key] = {}
            for workload, seeds in specs:
                print(f"{workload}: {len(seeds)} pairs, trace {trace}", flush=True)
                entry = doc[key].setdefault(workload, {"seeds": [], "pairs": []})
                for seed in seeds:
                    entry["pairs"].append(
                        _pair(sides, workload, seed, args.seconds, trace, len(entry["seeds"])))
                    entry["seeds"].append(seed)
            for entry in doc[key].values():
                pairs = entry.pop("pairs")
                if len(pairs) > 1:
                    entry["summary"] = {m: _summary(pairs, m, lb)
                                        for m, lb in lower_better[trace].items()}
                entry["runs"] = [run for p in pairs for run in p.values()]
    claims = []
    for spec in args.claim:
        workload, _, metric = spec.partition(":")
        s = doc["workloads"][workload]["summary"][metric]
        wins, n = map(int, s["change_wins"].split("/"))
        met = 10 * wins >= 9 * n and s["median_gap"] > s["parent_iqr"]
        detail = (f"change wins {wins}/{n} pairs; median gap {s['median_gap']:.4g}"
                  f" against a parent IQR of {s['parent_iqr']:.4g}")
        claims.append({"workload": workload, "metric": metric, "met": met, "detail": detail})
    if claims:
        doc["claims"] = claims
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for c in claims:
        print(f"claim {c['workload']} {c['metric']}: met={c['met']} ({c['detail']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
