"""Repository-wide pytest configuration: hypothesis profiles.

Three registered profiles, none with a deadline (compiled-module cache
misses dwarf any single example):

* ``dev`` (default) -- deterministic: ``derandomize=True`` seeds every
  property test from its own source, so the documented tier-1 command
  draws the same examples on every run, at Hypothesis's default
  example budget.
* ``ci`` -- deterministic and more thorough: a higher example budget
  for the property suites that do not pin their own.
* ``explore`` -- opt-in random exploration: fresh random seeds on every
  run (and the example database), at the default budget, for hunting
  new counterexamples locally.

Select with ``HYPOTHESIS_PROFILE=ci pytest ...`` (the CI workflow does).
"""

import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "dev",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "explore",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
