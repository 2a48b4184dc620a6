"""Shared test configuration.

Every Hypothesis test runs under one profile: derandomized, so each run
draws the same examples, and without a deadline, since exact arithmetic
on a loaded host can be slow.  Each ``@settings`` sets only its
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("spherestress", derandomize=True, deadline=None)
settings.load_profile("spherestress")
