"""Benchmark a parent commit against the working tree in alternating pairs.

    python3 tools/ab_pairs.py --parent REV --pairs fields_cantor=911-920 \
        --pairs map_cli=921-923 --traced fields_cantor=930 --out BENCH_x.json

Run it from the root of the repository.  Both sides are built the same
way, a ``git archive`` of a tree unpacked into a temporary directory:
the parent side's is REV's tree, and the change side's is the working
tree as ``git add -A`` would stage it, written with ``git write-tree``
through a temporary index, so the repository's own index is left as it
was.  The two directories' names have the same length.
For each workload and seed, one pair runs ``python3 perfbench/run.py
--workload W --seed N --seconds S --trace 0`` once per side, from the
root of that side's directory; even pairs run the parent first, odd
pairs the change.  ``--traced W=SEEDS`` adds ``--trace 1`` pairs, summarized
over the per-layer metrics.

The output file holds every run with its command, and per workload and
end-to-end metric the median, quartiles, minimum and maximum of each
side, the change's wins over its pair partner, the parent's
interquartile range and the median gap (positive when the change is
better).  Each end-to-end metric also gets a bound verdict, stored and
printed: the change median minus the parent median, signed so that
positive is worse, beside the metric's BENCHMARK.json ``bound`` read in
the metric's unit; "worse than bound" when the difference exceeds the
bound, "unresolved" when the parent's IQR does.  Beside it, each summary
counts the change's runs worse than the parent's worst run and the
parent's runs worse than the change's worst, so that a shift between
two modes of a metric shows as a count, and an exact two-sided
sign-flip p-value of the pair differences is stored and printed beside
the verdict.  ``--claim W:METRIC`` records whether the change won at
least 9 of every 10 pairs and its median gap exceeds the parent's IQR.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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


def _git(*args: str, env: dict | None = None) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True).stdout


def unpack(rev: str, dest: Path) -> None:
    """Unpack ``git archive REV`` into dest; tools/cli_bytes.py uses it too."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")


def working_tree() -> str:
    """The tree object of the working tree as ``git add -A`` would stage
    it, written through a temporary index."""
    with tempfile.TemporaryDirectory(prefix="ab_pairs_index_") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        _git("add", "-A", env=env)
        return _git("write-tree", env=env).decode().strip()


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


def sign_flip_p(diffs: list[float]) -> float:
    """Exact two-sided sign-flip permutation p-value of the pair
    differences: the share of the 2^n sign patterns whose sum is at
    least as far from 0 as the observed sum.  Under no change each
    difference is as likely negated, so every pattern is equally
    likely.  math.fsum rounds each exact sum once, so patterns whose
    sums are equal compare equal; 2^n sums are formed, 1,024 for 10
    pairs."""
    observed = abs(math.fsum(diffs))
    hits = sum(abs(math.fsum(s * d for s, d in zip(signs, diffs))) >= observed
               for signs in itertools.product((1.0, -1.0), repeat=len(diffs)))
    return hits / 2 ** len(diffs)


def _summary(pairs: list[dict[str, dict]], metric: str, lower_better: bool) -> dict:
    parent = [p["parent"][metric] for p in pairs]
    change = [p["change"][metric] for p in pairs]
    ps, cs = _stats(parent), _stats(change)
    sign = 1 if lower_better else -1  # sign * value is larger when worse
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    gap = ps["median"] - cs["median"]

    def beyond_worst(values: list[float], other: list[float]) -> int:
        worst = max(sign * v for v in other)
        return sum(sign * v > worst for v in values)

    return {
        "parent": ps,
        "change": cs,
        "change_over_parent_median": cs["median"] / ps["median"] if ps["median"] else None,
        "change_wins": f"{wins}/{len(pairs)}",
        "parent_iqr": ps["q3"] - ps["q1"],
        "median_gap": sign * gap,
        "change_worse_than_parent_worst": beyond_worst(change, parent),
        "parent_worse_than_change_worst": beyond_worst(parent, change),
        "sign_flip_p": sign_flip_p([p - c for p, c in zip(parent, change)]),
    }


def _bound_verdict(s: dict, bound: float) -> dict:
    """Summary s read against an end-to-end metric's bound."""
    worse_by = -s["median_gap"]
    notes = [note for note, hit in (("worse than bound", worse_by > bound),
                                    ("unresolved", s["parent_iqr"] > bound)) if hit]
    return {"change_minus_parent": worse_by, "bound": bound,
            "verdict": ", ".join(notes) or "within bound"}


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
    # mapping._BLOCK is sized to the per-core L2 cache
    try:
        l2 = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        l2 = None
    # when set, each setup_s spawn compiles the package again
    return {"cpu": cpu, "nproc": os.cpu_count(), "l2_cache": l2, "python": platform.python_version(),
            **versions, "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


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
    bounds = {m["name"]: (m["bound"], m["unit"]) for m in bench["end_to_end"]}
    parent_commit = _git("rev-parse", args.parent).decode().strip()
    head = _git("rev-parse", "HEAD").decode().strip()
    tree = working_tree()
    tool = ["python3", "tools/ab_pairs.py", *(sys.argv[1:] if argv is None else argv)]
    doc = {
        "what": args.what,
        "parent_commit": parent_commit,
        "change": f"working tree on {head}: git archive of its tree {tree}",
        "tool": shlex.join(tool),
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace T, run"
                   " from the root of each side's directory, a git archive of"
                   " parent_commit or of the change's tree",
        "order": "pairs alternate which side runs first: even pair index parent first,"
                 " odd pair index change first",
        "quartiles": QUARTILES,
        "machine": _machine(),
    }
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for side, rev in (("parent", args.parent), ("change", tree)):
            unpack(rev, sides[side])
        for key, trace, specs in (("workloads", 0, args.pairs), ("traced", 1, args.traced)):
            doc[key] = {}
            for workload, seeds in specs:
                print(f"{workload}: {len(seeds)} pairs, trace {trace}", flush=True)
                entry = doc[key].setdefault(workload, {"seeds": [], "pairs": []})
                for seed in seeds:
                    entry["pairs"].append(
                        _pair(sides, workload, seed, args.seconds, trace, len(entry["seeds"])))
                    entry["seeds"].append(seed)
            for workload, entry in doc[key].items():
                pairs = entry.pop("pairs")
                if len(pairs) > 1:
                    entry["summary"] = {m: _summary(pairs, m, lb)
                                        for m, lb in lower_better[trace].items()}
                if len(pairs) > 1 and not trace:
                    for m, s in entry["summary"].items():
                        bound, unit = bounds[m]
                        s.update(_bound_verdict(s, bound))
                        print(f"{workload} {m}: change - parent = {s['change_minus_parent']:+.4g}"
                              f" {unit} (bound {bound:g} {unit}, parent IQR"
                              f" {s['parent_iqr']:.4g}): {s['verdict']}; beyond the other"
                              f" side's worst run: change {s['change_worse_than_parent_worst']},"
                              f" parent {s['parent_worse_than_change_worst']}; sign-flip"
                              f" p = {s['sign_flip_p']:.4g}", flush=True)
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
