import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cantormap.quadrature import QuadratureError, integrate


def test_smooth_integrands():
    np.testing.assert_allclose(integrate(math.sin, 0.0, math.pi), 2.0, rtol=1e-9)
    np.testing.assert_allclose(integrate(lambda x: x**3, 0.0, 1.0), 0.25, rtol=1e-12)
    np.testing.assert_allclose(
        integrate(lambda x: math.exp(-x), 0.0, 50.0), 1.0, rtol=1e-9
    )


def test_kinked_integrand():
    # the radial profiles integrated in this package have |.|-style kinks
    np.testing.assert_allclose(
        integrate(lambda x: abs(x - 0.3), 0.0, 1.0), 0.5 * (0.09 + 0.49), rtol=1e-9
    )


def test_bad_interval():
    with pytest.raises(ValueError):
        integrate(math.sin, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate(math.sin, 2.0, 1.0)


def test_nonconvergence_is_an_error():
    # infinitely many oscillations near 0 exhaust the subdivision budget
    with pytest.raises(QuadratureError):
        integrate(lambda x: math.sin(1.0 / x), 1e-9, 1.0)


def test_scipy_loads_only_on_the_first_integrate_call():
    # a top-level scipy import would add most of a second to every command
    probe = (
        "import math, sys\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "import cantormap.cli\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "import cantormap\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "assert abs(cantormap.integrate(math.sin, 0.0, math.pi) - 2.0) <= 1e-9\n"
        "assert 'scipy.integrate' in sys.modules\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
