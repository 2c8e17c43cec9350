"""Adaptive 1-D quadrature with an explicit failure contract.

scipy loads on the first integrate call, so commands that never
integrate do not pay for importing it.
"""

from __future__ import annotations

import warnings
from typing import Callable


class QuadratureError(RuntimeError):
    """The integrator could not certify the requested tolerance."""


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-9,
    abs_floor: float = 1e-300,
) -> float:
    """Integrate f over [a, b] to rel_tol, or raise QuadratureError.

    Never returns a silently inaccurate value: any convergence warning
    from the adaptive scheme, or an error estimate above tolerance, is
    promoted to QuadratureError carrying the achieved tolerance.
    """
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            value, abserr = quad(f, a, b, epsabs=abs_floor, epsrel=rel_tol, limit=200)
        except IntegrationWarning as exc:
            raise QuadratureError(
                f"quadrature did not converge on [{a}, {b}]: {exc}"
            ) from exc
    achieved = abserr / abs(value) if value != 0.0 else abserr
    if achieved > rel_tol and abserr > abs_floor:
        raise QuadratureError(
            f"quadrature tolerance not met on [{a}, {b}]: "
            f"achieved {achieved:.3e}, wanted {rel_tol:.3e}"
        )
    return value
