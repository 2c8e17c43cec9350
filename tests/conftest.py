"""Test-suite settings shared by every test module.

Property tests run under a derandomized Hypothesis profile: the same
examples on every run and no example database on disk, so the suite
gives the same result each time it runs.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
