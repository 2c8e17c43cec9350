"""Acceptance suite: ten numbered criteria with pinned parameters.

Each test prints one [PASS]/[FAIL] line per check (visible with
pytest -s, and always in the failure report) and asserts the lot.
Criterion 4 is the exception: its limit check for the first tuple is
red by design, because the ratio approaches its limit only at
loglog(k)/log(k) speed and the deviation first drops below the 0.1
bound between k = 1e42 and 1e44.  That test asserts what the closed
form promises instead: the check reports the exact deviation with the
matching verdict, and the deviation shrinks along decades of k until
it meets the bound.  See the README for the analysis.
"""

import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

from gain_oracle import exact_gain_deviation

import cantormap
from cantormap.analysis import gain_ratio, gain_ratio_limit
from cantormap.cli import main
from cantormap.construction import ConstructionParams
from cantormap.verify import (
    _GAIN_TUPLES,
    CheckResult,
    check_boundary_consistency,
    check_gain_ratio,
    check_geometry,
    check_jacobian,
    check_mass_distribution,
    check_power_gauges,
    check_reproducibility,
    check_series,
    check_threshold_near_half,
    check_threshold_scan,
)


def _print_checks(checks):
    for c in checks:
        tag = "PASS" if c.passed else "FAIL"
        print(f"[{tag}] criterion {c.criterion:02d} {c.name}: "
              f"measured {c.measured}; target {c.target}")


def _report(checks):
    _print_checks(checks)
    failed = [c.name for c in checks if not c.passed]
    assert not failed, f"failed checks: {', '.join(failed)}"


def test_criterion_01_geometry_invariants():
    _report(check_geometry())


def test_criterion_02_boundary_consistency():
    _report(check_boundary_consistency())


def test_criterion_03_jacobian_integrals():
    _report(check_jacobian())


@pytest.mark.parametrize("tuple_index", [0, 1])
def test_criterion_04_gain_ratio_limit(tuple_index):
    checks = check_gain_ratio(tuple_index)
    _print_checks(checks)
    limit_check, monotone_check = checks
    assert monotone_check.passed

    # the limit check reports the exact deviation at k = 1e9 and judges
    # it against the 0.1 bound
    sigma, beta, p = _GAIN_TUPLES[tuple_index]
    exact = exact_gain_deviation(10**9, sigma, beta, p)
    assert float(limit_check.measured) == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert limit_check.target == "|ratio/limit - 1| < 0.1 at k = 1e9"
    assert limit_check.passed == (exact < 0.1)

    # the convergence itself: the deviation shrinks over every decade
    # and meets the 0.1 bound (tuple 0 between 1e42 and 1e44)
    params = ConstructionParams(sigma, beta)
    limit = gain_ratio_limit(p, params)
    devs = [abs(gain_ratio(10**e, p, params) / limit - 1.0) for e in range(3, 61)]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    if tuple_index == 0:
        assert devs[42 - 3] > 0.1 > devs[44 - 3]
    else:
        assert max(devs) < 0.1


def test_criterion_05_series_ratios_and_flip():
    _report(check_series())


def test_criterion_06_gauge_exponent_scan():
    _report(check_threshold_scan())


def test_criterion_07_mass_distribution():
    _report(check_mass_distribution())


def test_criterion_08_power_gauge_dimensions():
    _report(check_power_gauges())


def test_criterion_09_threshold_near_half():
    _report(check_threshold_near_half())


def test_criterion_10_reproducibility(tmp_path):
    checks = list(check_reproducibility())
    argvs = {
        "construct": ["construct", "--depth", "4"],
        "map": ["map", "--samples", "200"],
        "series": ["series", "subexp"],
        "verify": ["verify"],
    }
    diverged = []
    for name, argv in argvs.items():
        # identical argv both times: the JSON document echoes --out,
        # so reproducibility is same-flags-same-bytes, not cross-path
        target = tmp_path / f"{name}.out"
        full = argv + ["--out", str(target)]
        main(full)
        first = target.read_bytes()
        main(full)
        if target.read_bytes() != first:
            diverged.append(name)
    checks.append(
        CheckResult(
            10,
            "cli_byte_reproducibility",
            "pass" if not diverged else "fail",
            "identical" if not diverged else f"diverged: {diverged}",
            "each command run twice, outputs byte-compared",
        )
    )
    _report(checks)


README = Path(__file__).resolve().parent.parent / "README.md"

# library surface that no command, check or oracle used, and was removed
RETIRED_NAMES = (
    "SubexpFunctional", "subexp_A", "gauge_eval", "monotone_threshold",
    "log_preimage_side", "LogQuantity", "log_sum", "_diam_factor", "SQRT2",
    "Frame", "frame", "frame_map", "log_coeffs", "compare_distortion_bound",
    "DistortionComparison", "FrameMapCoeffs", "integrate", "QuadratureError",
    "frame_distortion_profile", "image_area_partition_defect", "log_add", "distortion_bound_T",
    "nonzero_side", "_linear_radii",
)
RETIRED_OPTIONS = {
    ("analysis", "frame_tv_integral"): ("include_square",),
    ("analysis", "frame_subexp_integral"): ("include_square",),
    ("construction", "validate_geometry"): ("pairwise_level_max",),
    ("measure", "natural_cover_sum"): ("diam_convention",),
    ("measure", "box_dimension_pre"): ("k",),
    ("measure", "threshold_scan"): ("diam_convention",),
    ("measure", "mass_distribution_bound"): ("gauge", "diam_convention"),
}


def test_readme_library_block_runs():
    """The README "Library" example imports and runs as printed, and the
    retired names and options stay gone from the package."""
    text = README.read_text()
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})

    modules = [cantormap] + [
        importlib.import_module(f"cantormap.{m.name}")
        for m in pkgutil.iter_modules(cantormap.__path__)
    ]
    assert len(modules) == 8  # the package and its seven modules
    assert [
        (m.__name__, name) for m in modules for name in RETIRED_NAMES if hasattr(m, name)
    ] == []
    for (module, fn), options in RETIRED_OPTIONS.items():
        params = inspect.signature(getattr(getattr(cantormap, module), fn)).parameters
        assert not set(options) & set(params), (module, fn)
