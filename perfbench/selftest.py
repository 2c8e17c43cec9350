"""Self-test of the benchmark harness at tiny input sizes.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  Its name keeps pytest from
collecting it.  It runs every workload in both trace modes and checks
that the result line names exactly the metrics BENCHMARK.json lists,
with their units, and that the unchanged program passes every oracle.
Then it checks that the harness counts failures: one corrupted digit
in one row of each map output, a count that differs between two traced
passes, and an op that runs slower when traced than the tracer's cost
explains, must each raise the failed count.  Exits 0 when all checks
pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
from pathlib import Path

import run

run.import_package()

from cantormap import mapping  # noqa: E402  (needs cantormap on the path)
from workloads import TINY  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, trace: int, mutate=None) -> tuple[dict, str]:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, sizes=TINY, mutate=mutate)
    assert code == 0, f"{workload}: exit code {code}"
    text = out.getvalue()
    return json.loads(text.splitlines()[-1]), text


def check_result(workload: str, trace: int, result: dict) -> None:
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert set(result["metrics"]) == set(units), set(units) ^ set(result["metrics"])
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == units[name], (name, metric)
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), (name, metric)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["correct"] and result["failed"] == 0, f"{workload} trace {trace}: {result}"
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == 0:
        assert all(v > 0 for v in values.values()), values
    elif workload == "fields_cantor":
        assert values["mapping.useful_ratio"] == 1.0, values["mapping.useful_ratio"]
    elif workload == "fields_uniform":
        assert 0.0 < values["mapping.useful_ratio"] < 1.0, values["mapping.useful_ratio"]


def flip_digit(text: str, start: int) -> str:
    """Change the first digit after the first '.' at or past start."""
    i = text.index(".", start) + 1
    assert text[i].isdigit(), text[start : i + 1]
    return text[:i] + str((int(text[i]) + 5) % 10) + text[i + 1 :]


def corrupt(path: Path, row: int) -> None:
    text = path.read_text()
    if path.suffix == ".csv":
        line_start = 0
        for _ in range(row + 1):  # skip the header and `row` rows
            line_start = text.index("\n", line_start) + 1
        start = text.index(",", text.index(",", line_start) + 1) + 1  # the fx column
    else:
        start = -1
        for _ in range(row + 1):
            start = text.index('"fx": ', start + 1)
    path.write_text(flip_digit(text, start))


def corrupt_map_outputs(workload) -> None:
    for op in workload.ops:
        def run_then_corrupt(original=op.run, output=op.output):
            code = original()
            corrupt(output, TINY.map_points // 2)
            return code

        op.run = run_then_corrupt


def tracing() -> bool:
    """Whether a traced pass has the layer functions wrapped right now."""
    return hasattr(mapping.fields_batch, "__wrapped__")


def extra_call_every_other_traced_pass(workload) -> None:
    op = workload.ops[0]
    traced_calls = []

    def run_twice_sometimes(original=op.run):
        if tracing():
            traced_calls.append(1)
            if len(traced_calls) % 2 == 0:
                original()
        return original()

    op.run = run_twice_sometimes


def slower_when_traced(workload) -> None:
    op = workload.ops[0]

    def run_slowly_when_traced(original=op.run):
        if tracing():
            time.sleep(0.3)
        return original()

    op.run = run_slowly_when_traced


def main() -> int:
    for workload in (w["name"] for w in BENCH["workloads"]):
        for trace in (0, 1):
            result, _ = invoke(workload, trace)
            check_result(workload, trace, result)
            print(f"ok  {workload} trace {trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops, 0 failed")

    result, text = invoke("map_cli", 0, mutate=corrupt_map_outputs)
    map_ops = result["attempted"] - run.SETUP_SPAWNS
    assert not result["correct"] and result["failed"] == map_ops > 0, result
    assert text.count("map csv row") + text.count("map json row") == map_ops, text
    print(f"ok  a corrupted digit fails the map op: {result['failed']} of {result['attempted']} ops failed")

    result, text = invoke("fields_uniform", 1, mutate=extra_call_every_other_traced_pass)
    assert not result["correct"] and "FAILED counts of traced pass" in text, result
    assert result["metrics"]["fail_ratio"]["value"] == 0.0
    print("ok  counts that differ between traced passes are a failure")

    result, text = invoke("map_cli", 1, mutate=slower_when_traced)
    assert not result["correct"] and "FAILED trace check map_csv" in text, result
    assert "FAILED trace check map_json" not in text, text
    print("ok  an op that is slower when traced than the tracer's cost explains is a failure")
    return 0


if __name__ == "__main__":
    sys.exit(main())
