"""Shared test configuration.

Every Hypothesis test runs under one profile: derandomized, so each run
draws the same examples, and without a deadline, since exact arithmetic
on a loaded host can be slow.  Each ``@settings`` sets only its
``max_examples``.

The ``level_builds`` fixture records every face level a complex builds.
"""

import pytest
from hypothesis import settings

from spherestress import complex_core as cc

settings.register_profile("spherestress", derandomize=True, deadline=None)
settings.load_profile("spherestress")


@pytest.fixture
def level_builds(monkeypatch):
    """A list that receives (complex, k) each time a complex builds its
    k-faces from its facets."""
    built, real = [], cc.SimplicialComplex._level

    def spy(self, k):
        built.append((self, k))
        return real(self, k)
    monkeypatch.setattr(cc.SimplicialComplex, "_level", spy)
    return built
