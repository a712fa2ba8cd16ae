"""Suite-wide test configuration.

Every Hypothesis test runs derandomized: the examples are a fixed function
of the test, so a run that passes passes again and a counterexample found
once is found every time, instead of surfacing only when the random draw
happens to reach it.  No example database is read or written, and no
per-example deadline applies (simulated runs vary in wall time with the
machine, not with the input).
"""

from hypothesis import settings

settings.register_profile(
    "derandomized", derandomize=True, database=None, deadline=None
)
settings.load_profile("derandomized")
