"""The first-seed stress numbers that the stress and socle families share
within one ``verify.run_families`` call."""

from collections import Counter

import pytest

from spherestress import catalog as cat
from spherestress import linalg
from spherestress import stress as st
from spherestress import verify as ver

SOCLE_IDS = {"socle-equals-missing-count", "socle-middle-at-least-missing-count",
             "level-up-to-socle-degree"}
SEED = 17


@pytest.fixture
def made(monkeypatch):
    """Shrink the residual catalog to the octahedron and K-2-4, and map
    the id of each complex it builds to the sphere's name."""
    made = {}  # id of a catalog complex -> (complex, sphere name)

    def residual_catalog():
        spheres = [cat.build("octahedron"), cat.build("K-2-4")]
        for s in spheres:
            made[id(s.complex)] = (s.complex, s.name)  # kept alive: ids stay unique
        return spheres

    monkeypatch.setattr(cat, "residual_catalog", residual_catalog)
    return made


@pytest.fixture
def calls(made, monkeypatch):
    """Count the ``stress.stress_numbers`` calls on the shrunken residual
    catalog's spheres, keyed by (sphere name, embedding seed).  Calls on
    other complexes (the K-2-4 that the level check builds itself) are
    not counted."""
    counter = Counter()
    real = st.stress_numbers

    def stress_numbers(c, e):
        if id(c) in made:
            counter[(made[id(c)][1], e.seed)] += 1
        return real(c, e)

    monkeypatch.setattr(st, "stress_numbers", stress_numbers)
    return counter


ONCE_EACH = Counter({("octahedron", SEED): 1, ("K-2-4", SEED): 1})


def socle_rows(report):
    return [r for r in report.checks if r.check_id in SOCLE_IDS]


def test_one_space_per_sphere_and_degree(calls, monkeypatch):
    dim_seeds = []
    real = st.stress_dims

    def stress_dims(c, e, degrees):
        dim_seeds.append(e.seed)
        return real(c, e, degrees)

    monkeypatch.setattr(st, "stress_dims", stress_dims)
    report = ver.run_families(["stress", "socle"], SEED)
    assert report.ok
    assert calls == ONCE_EACH
    # the first seed's dims come from the shared numbers; only the second
    # seed and the natural embeddings are ranked by stress_dims
    assert SEED not in dim_seeds
    assert SEED + st.SECOND_SEED_OFFSET in dim_seeds


def test_second_run_recomputes(calls):
    ver.run_families(["stress", "socle"], SEED)
    first = Counter(calls)
    calls.clear()
    ver.run_families(["stress", "socle"], SEED)
    assert calls == first == ONCE_EACH


def test_socle_alone_matches_combined_run(calls):
    combined = socle_rows(ver.run_families(["stress", "socle"], SEED))
    calls.clear()
    alone = socle_rows(ver.run_families(["socle"], SEED))
    assert calls == ONCE_EACH
    assert alone == combined
    assert len(alone) == 2 + 3 + 1  # octahedron k=0..1, K-2-4 k=0..2, the level row


def test_stress_alone_ranks_only(calls):
    # without the socle family the first seed needs ranks, not socles
    report = ver.run_families(["stress"], SEED)
    assert report.ok
    assert calls == Counter()


def test_facet_minors_ranked_once_per_sphere_and_seed(made, monkeypatch):
    # rows_stress ranks all degrees of an embedding in one stress_dims
    # call, so the l.s.o.p. check ranks each facet minor once per seed
    minors = Counter()
    checking = []  # (sphere name, seed) of the running l.s.o.p. check, or None
    real_h, real_rank = st._cohen_macaulay_h, linalg.modp_rank

    def cohen_macaulay_h(c, e):
        checking.append((made[id(c)][1], e.seed) if id(c) in made else None)
        try:
            return real_h(c, e)
        finally:
            checking.pop()

    def modp_rank(rows, rr=None):
        if checking and checking[-1]:
            minors[checking[-1]] += 1
        return real_rank(rows, rr)

    monkeypatch.setattr(st, "_cohen_macaulay_h", cohen_macaulay_h)
    monkeypatch.setattr(linalg, "modp_rank", modp_rank)
    assert all(r.holds for r in ver.rows_stress(SEED))
    facets = {name: len(cat.build(name).complex.facets) for name in ("octahedron", "K-2-4")}
    assert minors == Counter({(name, seed): n for name, n in facets.items()
                              for seed in (SEED, SEED + st.SECOND_SEED_OFFSET)})
