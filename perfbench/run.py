"""Run one cantormap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports cantormap from that
checkout's ``src/`` and nowhere else, and exits with code 2 when the
sources are missing.  One process with one thread runs the workload's
operations as a closed loop (each call starts when the previous one has
returned) for about S seconds, at least three passes, and checks every
output against an oracle.  With ``--trace 0`` it reports the end-to-end
metrics named in BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced passes, and reports the per-layer metrics.  Lines
before the last are a readable report and a provenance record; the
last line is one JSON object with the keys correct, attempted, failed
and metrics.  Scratch files go under ``.bench_build/perfbench/`` and are
removed at exit.
"""

from __future__ import annotations

import os

# One thread: numpy must not fan out behind the closed loop's back.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import Tracer, installed, span_cost

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 5
MIN_PASSES = 3
MIN_TRACE_ROUNDS = 3
# A traced op may run slower than its untraced twin by up to
# TRACE_COST_FACTOR times the tracer's predicted cost: inside real code a
# span also costs cache misses and the collections its allocations set
# off, about 2 to 4 times the calibrated figure.  Either way it may also
# differ by TRACE_TOLERANCE of the untraced time plus TRACE_SLACK_S for
# ops of a few ms.  Adjacent passes of one op differ by up to about 45% on
# a shared 2-vCPU host, so the share is wide: the check catches a wrapper
# that repeats or skips work, not a few percent.
TRACE_COST_FACTOR = 5.0
TRACE_TOLERANCE = 0.5
TRACE_SLACK_S = 0.05


def import_package():
    """Import cantormap from this checkout's src/, or exit with code 2."""
    package = SRC / "cantormap"
    if not (package / "__init__.py").is_file():
        print(f"error: no cantormap sources at {package}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cantormap

    if Path(cantormap.__file__).resolve().parent != package.resolve():
        print(f"error: imported cantormap from {cantormap.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)


@dataclass
class Pass:
    times: dict[str, float] = field(default_factory=dict)
    spans: dict[str, int] = field(default_factory=dict)  # traced: spans below the op's own
    problems: dict[str, list[str]] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.times.values())


def run_pass(workload, tracer=None) -> Pass:
    """Run each op once, in order; trace it when a tracer is given."""
    result = Pass()
    for op in workload.ops:
        if op.output is not None:  # so an oracle never reads a stale file
            op.output.unlink(missing_ok=True)
        gc.collect()
        entered = tracer.entered if tracer is not None else 0
        start = perf_counter()
        try:
            with ExitStack() as stack:
                if tracer is not None:
                    stack.enter_context(installed(tracer))
                    stack.enter_context(tracer.span(op.span))
                start = perf_counter()
                out = op.run()
            result.times[op.name] = perf_counter() - start
            result.problems[op.name] = op.check(out)
            del out
        except Exception:  # count the op as failed and keep measuring
            result.times.setdefault(op.name, perf_counter() - start)
            result.problems[op.name] = [traceback.format_exc(limit=3)]
        if tracer is not None:
            result.spans[op.name] = tracer.entered - entered - 1
            if op.output is not None and op.output.exists():
                tracer.counts[op.bytes_metric] += op.output.stat().st_size
    return result


def run_passes(workload, seconds: float, min_rounds: int, modes=(False,)):
    """Rounds of one pass per mode (True: traced), so that traced and
    untraced passes alternate and drift of the machine hits both alike.
    At least min_rounds rounds; more while the next one, oracles
    included, is expected to end within ``seconds`` of the start.
    Returns one list of (pass, tracer) per mode."""
    runs = [[] for _ in modes]
    walls = []
    start = perf_counter()
    while len(walls) < min_rounds or perf_counter() - start + statistics.median(walls) <= seconds:
        began = perf_counter()
        for traced, passes in zip(modes, runs):
            tracer = Tracer() if traced else None
            passes.append((run_pass(workload, tracer), tracer))
        walls.append(perf_counter() - began)
    return runs


def measure_setup() -> tuple[list[float], list[str]]:
    """Wall times of fresh interpreters running ``import cantormap.cli``.

    This process has imported the package already, so the bytecode
    cache is warm and every spawn is timed.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", "import cantormap.cli"]
    times, problems = [], []
    for _ in range(SETUP_SPAWNS):
        start = perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120,
        )
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            problems.append(f"import cantormap.cli exited {proc.returncode}: {proc.stderr[-500:]}")
    return times, problems


def describe(samples: list[float], unit: str) -> str:
    """Median, the highest percentile with ten samples beyond it, and n."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g} {unit}, n={n}"
    if n < 11:
        return text + ", no tail percentile (needs 11 or more samples)"
    rank = n - 10  # nearest rank: ten samples lie above it
    return text + f", p{math.floor(1000.0 * rank / n) / 10.0:g} {sorted(samples)[rank - 1]:.6g} {unit}"


def git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, workload) -> dict:
    import numpy
    import scipy

    from workloads import BETA, SIGMA

    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "seed": args.seed,
        "sigma": SIGMA,
        "beta": BETA,
        "workload": workload.name,
        "inputs": workload.inputs,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": sys.orig_argv,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_medians(workload, passes) -> dict[str, float]:
    return {op.name: statistics.median(p.times[op.name] for p, _ in passes) for op in workload.ops}


def end_to_end(passes, setup_times) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        # The mean, not the median: with 3 to 5 passes a run, slow phases of
        # the host last seconds to minutes, and the mean of every pass
        # spread less from run to run than the median in 13 of 16 sets
        # of ten runs (four workloads, four rounds).
        "pass_s": statistics.fmean(p.seconds for p, _ in passes),
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_value(name: str, tracer) -> float:
    base, _, kind = name.rpartition(".")
    if kind == "s":
        return tracer.inclusive.get(base, 0.0)
    if kind == "self_s":
        return tracer.self_time.get(base, 0.0)
    return tracer.counts.get(name, 0)


def trace_check(workload, untraced, traced, cost: float) -> list[str]:
    """Check that each op's spans account for its untraced time.

    The self times of an op's spans add up to its traced span.  Paired
    with the untraced pass run just before it, the traced span may
    exceed the untraced time by the tracer's cost, which is predicted as
    the spans opened below the op times ``cost``, the calibrated cost of
    one span.  The allowed range is set by the constants above.  A
    wrapper that changes the work, or a tracer that costs far more than
    predicted, fails it.
    """
    problems = []
    for op in workload.ops:
        plain = statistics.median(p.times[op.name] for p, _ in untraced)
        gap = statistics.median(
            t.inclusive[op.span] - u.times[op.name] for (u, _), (_, t) in zip(untraced, traced)
        )
        spans = statistics.median(p.spans[op.name] for p, _ in traced)
        predicted = spans * cost
        noise = TRACE_TOLERANCE * plain + TRACE_SLACK_S
        low, high = -noise, TRACE_COST_FACTOR * predicted + noise
        print(f"  trace check {op.name}: untraced {plain:.4g} s, traced span minus untraced "
              f"{gap:+.4g} s, predicted {predicted:.4g} s for {spans:g} spans, "
              f"allowed {low:+.4g} to {high:+.4g} s")
        if not low <= gap <= high:
            problems.append(f"trace check {op.name}: traced span minus untraced time is {gap:+.4g} s, "
                            f"outside {low:+.4g} to {high:+.4g} s")
    return problems


def per_layer(names, workload, untraced, traced, fail_ratio) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced passes, op figures from untraced ones.

    A name without a dot other than fail_ratio is an op's own figure
    (map_csv_s, evaluate_mpts_per_s, ...); it reads 0 on workloads
    without that op.  Counts must repeat exactly from one traced pass to
    the next; violations are returned as problems.
    """
    problems = []
    first = traced[0][1]
    for i, (_, tracer) in enumerate(traced[1:], start=2):
        if dict(tracer.counts) != dict(first.counts):
            diff = sorted(k for k in set(tracer.counts) | set(first.counts)
                          if tracer.counts.get(k) != first.counts.get(k))
            problems.append(f"counts of traced pass {i} differ from pass 1: {diff}")

    ran = {op.metric: op for op in workload.ops}
    problems += [f"op figure {m} is not a per-layer metric" for m in ran if m not in names]
    medians = op_medians(workload, untraced)
    swept = first.counts.get("mapping.swept_point_levels", 0)
    values = {}
    for name in names:
        if name == "fail_ratio":
            values[name] = fail_ratio
        elif "." not in name:
            op = ran.get(name)
            values[name] = op.value(medians[op.name]) if op else 0.0
        elif name == "trace.overhead_s":
            values[name] = statistics.median(
                t.seconds - u.seconds for (u, _), (t, _) in zip(untraced, traced))
        elif name == "mapping.useful_ratio":
            values[name] = first.counts["mapping.point_levels"] / swept if swept else 0.0
        elif name.rpartition(".")[2] in ("s", "self_s"):
            values[name] = statistics.median(layer_value(name, t) for _, t in traced)
        else:
            values[name] = layer_value(name, first)
    return values, problems


def main(argv=None, sizes=None, mutate=None) -> int:
    """Parse the flags and run one workload.

    sizes and mutate exist for the self-test: smaller inputs, and a hook
    that may alter the built workload before it runs.
    """
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    import_package()
    from workloads import WORKLOADS, Sizes

    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, sizes or Sizes(), workdir)
        if mutate is not None:
            mutate(workload)
        return run(args, bench, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, bench, workload) -> int:
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}, inputs {workload.inputs}")
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[kind]]
    units = {m["name"]: m["unit"] for m in bench[kind]}
    problems: list[str] = []
    attempted = failed = 0

    if args.trace == 0:
        setup_times, setup_problems = measure_setup()
        attempted += SETUP_SPAWNS
        failed += len(setup_problems)
        problems += setup_problems
        print(f"  setup_s: {describe(setup_times, 's')} (fresh interpreters)")
        (passes,) = run_passes(workload, args.seconds, MIN_PASSES)
        runs = passes
    else:
        cost = span_cost()
        print(f"  tracer cost: {cost * 1e6:.3g} us per span (calibrated on a function that does nothing)")
        passes, traced = run_passes(workload, args.seconds, MIN_TRACE_ROUNDS, (False, True))
        runs = passes + traced

    for p, _ in runs:
        attempted += len(p.times)
        for op, msgs in p.problems.items():
            failed += bool(msgs)
            problems += [f"{op}: {msg}" for msg in msgs]
    print(f"  untraced passes: {describe([p.seconds for p, _ in passes], 's')}: "
          + ", ".join(f"{p.seconds:.4f}" for p, _ in passes))
    for op in workload.ops:
        seconds = [p.times[op.name] for p, _ in passes]
        value = op.value(statistics.median(seconds))
        print(f"  op {op.name} (untraced): {describe(seconds, 's')}; {op.metric} = {value:.6g}")

    if args.trace == 0:
        values = end_to_end(passes, setup_times)
    else:
        values, trace_problems = per_layer(names, workload, passes, traced, failed / attempted)
        trace_problems += trace_check(workload, passes, traced, cost)
        first = traced[0][1]
        attempted += 1
        failed += bool(trace_problems)
        problems += trace_problems
        for span in first.missing:
            print(f"  warning: layer function {span} not found; its metrics read 0")

    for name in names:
        print(f"  {name} = {values[name]!r} {units[name]}")
    for msg in problems:
        print(f"  FAILED {msg}")
    print("provenance " + json.dumps(provenance(args, workload), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
