"""Shared test configuration.

Every Hypothesis test runs under one profile: derandomized, so each run
draws the same examples, and without a deadline, since exact arithmetic
on a loaded host can be slow.  Each ``@settings`` sets only its
``max_examples``.

The ``level_builds`` fixture records every face level a complex builds,
``computations`` records every complex that computes a memoized
property, and ``degenerate_second_seed`` makes the two seeds of the
stress certificate disagree.
"""

from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import settings

from spherestress import complex_core as cc
from spherestress import stress as st

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


@pytest.fixture
def computations(monkeypatch):
    """A function that takes the name of a memoized ``SimplicialComplex``
    property and returns a list that receives each complex when it
    computes that property."""
    def spy_on(name):
        made, real = [], getattr(cc.SimplicialComplex, name).func

        def spy(self):
            made.append(self)
            return real(self)
        prop = cached_property(spy)
        prop.__set_name__(cc.SimplicialComplex, name)
        monkeypatch.setattr(cc.SimplicialComplex, name, prop)
        return made
    return spy_on


@pytest.fixture
def degenerate_second_seed(monkeypatch):
    """Make the generic embedding of every seed from SECOND_SEED_OFFSET
    on, the certificate's second seed, put every vertex in the
    hyperplane x_d = 0, where the stress dimensions jump: the two seeds
    of ``stress.certified_stress_dims`` then disagree."""
    real = st.generic_embedding

    def generic_embedding(c, seed):
        e = real(c, seed)
        if seed < st.SECOND_SEED_OFFSET:
            return e
        return st.Embedding({v: cs[:-1] + (Fraction(0),) for v, cs in e.coords.items()},
                            e.d, "generic", seed)
    monkeypatch.setattr(st, "generic_embedding", generic_embedding)
