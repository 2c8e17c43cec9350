import math

import numpy as np
import pytest
from log_oracle import log_sum

from cantormap.logspace import log_add


def test_log_add_matches_direct():
    for x, y in [(0.0, 0.0), (-3.0, -7.5), (10.0, 9.0), (-700.0, -701.0)]:
        np.testing.assert_allclose(
            log_add(x, y), math.log(math.exp(x) + math.exp(y)), rtol=1e-14
        )


def test_log_add_extreme_separation():
    # the small term vanishes below resolution instead of corrupting anything
    assert log_add(0.0, -1e9) == 0.0
    assert log_add(-1e9, 0.0) == 0.0
    assert log_add(float("-inf"), -5.0) == -5.0


def test_log_sum():
    vals = [-2.0, -1.0, -3.0, -0.5]
    np.testing.assert_allclose(
        log_sum(vals), math.log(sum(math.exp(v) for v in vals)), rtol=1e-14
    )
    # far below double range: shifting by the max keeps the sum finite
    shifted = [v - 1e8 for v in vals]
    np.testing.assert_allclose(log_sum(shifted), log_sum(vals) - 1e8, rtol=1e-12)
    with pytest.raises(ValueError):
        log_sum([])
