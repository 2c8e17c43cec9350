"""The acceptance suite behind the verify command.

Each criterion is a function returning check results with pinned
parameters, tolerances, and seeds, so a verify run is reproducible to
the byte.  One check is expected to fail and is documented in the
README: the gain-ratio deviation at sigma = 0.25, beta = 2, p = 2 is
still 0.27 at level 10^9 because the ratio approaches its limit only
at loglog(k)/log(k) speed; it first meets the stated 0.1 bound
between levels 1e42 and 1e44.  The check runs faithfully and reports the honest
number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .analysis import (
    frame_integral_mc,
    frame_jacobian_integral,
    gain_ratio_limit,
    gain_ratio,
    p_threshold,
    series_terms,
)
from .construction import ConstructionParams, radii, validate_geometry
from .mapping import consistency_check
from .measure import (
    Gauge,
    box_dimension_pre,
    mass_distribution_bound,
    natural_cover_sum,
    threshold_scan,
)

DEFAULT_SEED = 0x5EED

_SIGMA_GRID = (0.30, 0.45, 0.49)
_BETA_GRID = (1.0, 2.0)
_PINNED = ConstructionParams(0.45, 2.0)


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    status: str  # "pass" | "fail"
    measured: str
    target: str
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _check(criterion, name, ok, measured, target, detail=""):
    return CheckResult(criterion, name, "pass" if ok else "fail", measured, target, detail)


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def extend(self, items) -> None:
        self.checks.extend(items)


def check_geometry() -> list[CheckResult]:
    """Criterion 1: both families validate cleanly to level 10."""
    worst = 0
    details = []
    for sigma in _SIGMA_GRID:
        for beta in _BETA_GRID:
            report = validate_geometry(10, ConstructionParams(sigma, beta))
            worst += len(report.violations)
            if report.violations:
                details.append(f"sigma={sigma}, beta={beta}: {report.violations[:3]}")
    return [
        _check(
            1,
            "geometry_invariants",
            worst == 0,
            f"{worst} violations",
            "0 violations over sigma in {0.30,0.45,0.49}, beta in {1,2}, levels <= 10",
            "; ".join(details),
        )
    ]


def check_boundary_consistency(seed: int = DEFAULT_SEED, literal: bool = False) -> list[CheckResult]:
    """Criterion 2: frame maps glue to parent similarities; the
    rejected radii variant visibly does not."""
    worst = 0.0
    for sigma in (0.30, 0.45):
        for beta in _BETA_GRID:
            params = ConstructionParams(sigma, beta)
            for k in range(4, 13):
                worst = max(
                    worst, consistency_check(k, 10**4, params, seed=seed, literal=literal)
                )
    name = "boundary_consistency" + ("_with_literal_radii" if literal else "")
    results = [
        _check(
            2,
            name,
            worst < 1e-12,
            repr(worst),
            "< 1e-12 over levels 4..12, 1e4 samples each",
            "relative sup-norm mismatch against the parent similarity"
            + (" (literal radii variant: expected to fail)" if literal else ""),
        )
    ]
    lit = consistency_check(5, 10**4, _PINNED, seed=seed, literal=True)
    results.append(
        _check(
            2,
            "literal_radii_break_visibly",
            lit > 1e-1,
            repr(lit),
            "> 1e-1 at level 5",
            "the uncorrected image radii must miss by order one",
        )
    )
    return results


def check_jacobian(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Criterion 3: Jacobian closed form telescopes to the image frame
    area; Monte-Carlo agrees."""
    worst = 0.0
    for sigma in _SIGMA_GRID:
        for beta in _BETA_GRID:
            params = ConstructionParams(sigma, beta)
            for k in range(3, 13):
                rad = radii(k, params)
                area = 4.0 * (rad.R_img**2 - rad.r_img**2)
                worst = max(worst, abs(frame_jacobian_integral(k, params) / area - 1.0))
    closed = _check(
        3,
        "jacobian_closed_form",
        worst < 1e-12,
        repr(worst),
        "relative defect < 1e-12, levels 3..12",
        "closed form vs image frame area 4 (R'^2 - r'^2)",
    )
    mc = frame_integral_mc(4, _PINNED, "jacobian", n_samples=10**6, seed=seed)
    exact = frame_jacobian_integral(4, _PINNED)
    rel = abs(mc / exact - 1.0)
    monte = _check(
        3,
        "jacobian_monte_carlo",
        rel < 5e-3,
        repr(rel),
        "relative error < 5e-3, 1e6 samples",
        f"mc={mc!r} vs exact={exact!r} at level 4, sigma=0.45, beta=2",
    )
    return [closed, monte]


_GAIN_TUPLES = ((0.25, 2.0, 2.0), (0.45, 1.0, 0.5))


def check_gain_ratio(tuple_index: int) -> list[CheckResult]:
    """Criterion 4: the gauge-factor ratio approaches its closed-form
    limit, with deviation shrinking along decades of k."""
    sigma, beta, p = _GAIN_TUPLES[tuple_index]
    params = ConstructionParams(sigma, beta)
    limit = gain_ratio_limit(p, params)
    devs = [abs(gain_ratio(10**e, p, params) / limit - 1.0) for e in range(3, 10)]
    tag = f"sigma={sigma},beta={beta},p={p}"
    monotone = all(b < a for a, b in zip(devs, devs[1:]))
    return [
        _check(
            4,
            f"gain_ratio_limit[{tag}]",
            devs[-1] < 0.1,
            repr(devs[-1]),
            "|ratio/limit - 1| < 0.1 at k = 1e9",
            f"deviations along decades: {[f'{d:.4f}' for d in devs]}",
        ),
        _check(
            4,
            f"gain_ratio_monotone[{tag}]",
            monotone,
            "strictly decreasing" if monotone else "not monotone",
            "deviation decreasing over k in {1e3..1e9}",
        ),
    ]


def check_series() -> list[CheckResult]:
    """Criterion 5: term ratios match their limits and the verdict
    flips across the threshold exponent."""
    params = _PINNED
    tv = series_terms("tv", [10**4], params)
    tv_dev = abs(tv.ratios[0] - 2.0 * params.sigma)
    sub = series_terms("subexp", [10**6], params, p=0.5)
    sub_dev = abs(sub.ratios[0] / sub.limit_ratio - 1.0)
    p0 = p_threshold(params)
    below = series_terms("subexp", [10**4], params, p=0.9 * p0)
    above = series_terms("subexp", [10**4], params, p=1.1 * p0)
    return [
        _check(
            5,
            "tv_series_ratio",
            tv_dev < 1e-3,
            repr(tv.ratios[0]),
            f"within 1e-3 of 2 sigma = {2.0 * params.sigma} at k = 1e4",
        ),
        _check(
            5,
            "subexp_series_ratio",
            sub_dev < 0.02,
            repr(sub.ratios[0]),
            f"within 2% of the limit {sub.limit_ratio!r} at k = 1e6 (p = 0.5)",
        ),
        _check(
            5,
            "verdict_flip",
            below.verdict == "convergent" and above.verdict == "divergent",
            f"p=0.9 p0: {below.verdict}, p=1.1 p0: {above.verdict}",
            "convergent below p0, divergent above",
            f"p0 = {p0!r}, limiting ratios {below.limit_ratio!r} / {above.limit_ratio!r}",
        ),
    ]


def check_threshold_scan() -> list[CheckResult]:
    """Criterion 6: covering sums fall, hold, or grow with the gauge
    exponent below, at, or above the construction beta."""
    params = _PINNED
    levels = [10**3, 10**4, 10**5, 10**6]
    table = threshold_scan([1.0, 2.0, 4.0], levels, params)
    want = {1.0: "decreasing", 2.0: "stationary", 4.0: "growing"}
    ok = table.verdicts == want
    return [
        _check(
            6,
            "gauge_exponent_scan",
            ok,
            json.dumps({str(k): v for k, v in sorted(table.verdicts.items())}),
            json.dumps({str(k): v for k, v in sorted(want.items())}),
            f"levels {levels}, beta = {params.beta}",
        )
    ]


def check_mass_distribution() -> list[CheckResult]:
    """Criterion 7: the stationary sums admit a positive lower bound
    and settle near 1."""
    params = _PINNED
    rep = mass_distribution_bound(params, k_max=10**6)
    structural = rep.m > 0.0 and rep.lower_bound == rep.m / 4.0
    tail = math.exp(natural_cover_sum("image", Gauge(2, params.beta), 10**9, params))
    return [
        _check(
            7,
            "mass_distribution_bound",
            structural,
            f"m={rep.m!r} at k={rep.at_k}, lower={rep.lower_bound!r}",
            "m > 0 and lower bound exactly m/4",
            f"first admissible level {rep.first_admissible_k}",
        ),
        _check(
            7,
            "stationary_tail_near_one",
            abs(tail - 1.0) < 0.15,
            repr(tail),
            "covering sum at k = 1e9 within 15% of 1",
        ),
    ]


def check_power_gauges() -> list[CheckResult]:
    """Criterion 8: per-axis power-gauge sums pin the pre-image axis
    dimension; the planar box dimension stays below 2."""
    out = []
    for sigma in _SIGMA_GRID:
        params = ConstructionParams(sigma, 2.0)
        alpha = math.log(2.0) / math.log(1.0 / sigma)
        at_crit = natural_cover_sum("pre", Gauge(alpha, 0.0), 10**3, params)
        above = math.exp(natural_cover_sum("pre", Gauge(alpha + 0.05, 0.0), 10**3, params))
        dim = box_dimension_pre(params)
        ok = abs(at_crit) < 1e-9 and above < 1e-6 and dim < 2.0
        out.append(
            _check(
                8,
                f"power_gauge_axis[sigma={sigma}]",
                ok,
                f"log sum at alpha*: {at_crit!r}, sum at alpha*+0.05: {above!r}, dim: {dim!r}",
                "sum = 1 to 1e-9 at the critical alpha; < 1e-6 above; dimension < 2",
                "k = 1e3 per-axis covers",
            )
        )
    return out


def check_threshold_near_half() -> list[CheckResult]:
    """Criterion 9: the threshold exponent per unit beta approaches 1
    as sigma approaches 1/2."""
    params = ConstructionParams(0.499, 1.0)
    val = p_threshold(params) / params.beta
    return [
        _check(
            9,
            "threshold_near_half",
            abs(val - 0.99900) < 1e-3,
            repr(val),
            "p0 / beta within 1e-3 of 0.99900 at sigma = 0.499",
        )
    ]


def check_reproducibility(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Criterion 10 (internal half): seeded computations and their JSON
    serialization repeat byte for byte.  The CLI-level half runs the
    commands twice and compares output files."""

    def snapshot() -> str:
        vals = {
            "consistency": consistency_check(5, 10**3, _PINNED, seed=seed),
            "mc": frame_integral_mc(4, _PINNED, "jacobian", n_samples=10**4, seed=seed),
        }
        return json.dumps(vals, sort_keys=True)

    a, b = snapshot(), snapshot()
    return [
        _check(
            10,
            "seeded_reproducibility",
            a == b,
            "identical" if a == b else "diverged",
            "two seeded runs serialize identically",
        )
    ]


def run_verification(seed: int = DEFAULT_SEED, literal: bool = False) -> VerificationReport:
    """Run every criterion with its pinned parameters.

    literal=True demonstrates the rejected radii variant: the boundary
    consistency criterion then runs against literal radii and fails.
    """
    report = VerificationReport()
    report.extend(check_geometry())
    report.extend(check_boundary_consistency(seed=seed, literal=literal))
    report.extend(check_jacobian(seed=seed))
    for i in range(len(_GAIN_TUPLES)):
        report.extend(check_gain_ratio(i))
    report.extend(check_series())
    report.extend(check_threshold_scan())
    report.extend(check_mass_distribution())
    report.extend(check_power_gauges())
    report.extend(check_threshold_near_half())
    report.extend(check_reproducibility(seed=seed))
    return report
