"""What the verify families share within one ``verify.run_families``
call: each catalog sphere is built once, so every family reads the same
complex objects and their memoized faces, missing faces and homology
verdict, and each socle is computed once, for the families and the
counterexamples alike."""

import functools
import json
from collections import Counter

import pytest

from spherestress import catalog as cat
from spherestress import cli
from spherestress import complex_core as cc
from spherestress import linalg
from spherestress import stress as st
from spherestress import verify as ver

SOCLE_IDS = {"socle-equals-missing-count", "socle-middle-at-least-missing-count",
             "level-up-to-socle-degree"}
SEED = 17
SHRUNK = ("octahedron", "K-2-4")


@pytest.fixture
def made(monkeypatch):
    """Shrink the residual catalog to the octahedron and K-2-4, and map
    the id of each complex built for one of them to the sphere's name."""
    made = {}  # id of a catalog complex -> (complex, sphere name)
    real = cat.build

    def build(name):
        sphere = real(name)
        if name in SHRUNK:
            made[id(sphere.complex)] = (sphere.complex, name)  # kept alive: ids stay unique
        return sphere

    monkeypatch.setattr(cat, "RESIDUAL", SHRUNK)
    monkeypatch.setattr(cat, "build", build)
    return made


@pytest.fixture
def calls(made, monkeypatch):
    """Count the ``stress.stress_numbers`` calls on the shrunken residual
    catalog's spheres, keyed by (sphere name, embedding seed)."""
    counter = Counter()
    real = st.stress_numbers

    def stress_numbers(c, e):
        if id(c) in made:
            counter[(made[id(c)][1], e.seed)] += 1
        return real(c, e)

    monkeypatch.setattr(st, "stress_numbers", stress_numbers)
    return counter


# the socle family's socles: one per residual sphere, K-2-4's shared
# with the level row
SOCLE_CALLS = Counter({("octahedron", SEED): 1, ("K-2-4", SEED): 1})


def socle_rows(report):
    return [r for r in report.checks if r.check_id in SOCLE_IDS]


def test_each_sphere_built_and_numbered_once_per_run(monkeypatch):
    builds, numbered = Counter(), Counter()
    names = {}  # id of a built complex -> (complex, name)
    real_build, real_numbered = cat.build, cc._numbered_faces

    def build(name):
        builds[name] += 1
        sphere = real_build(name)
        names[id(sphere.complex)] = (sphere.complex, name)
        return sphere

    def numbered_faces(c):
        if id(c) in names:
            numbered[names[id(c)][1]] += 1
        return real_numbered(c)

    monkeypatch.setattr(cat, "build", build)
    monkeypatch.setattr(cc, "_numbered_faces", numbered_faces)
    assert ver.run_families(list(ver.FAMILIES), SEED).ok
    assert set(builds) == set(cat.catalog_names())
    assert max(builds.values()) == 1
    assert numbered and max(numbered.values()) == 1


def test_stress_family_ranks_both_seeds(calls, made, monkeypatch):
    dim_seeds = Counter()
    real = st.stress_dims

    def stress_dims(c, e, degrees):
        if id(c) in made:
            dim_seeds[(made[id(c)][1], e.seed)] += 1
        return real(c, e, degrees)

    monkeypatch.setattr(st, "stress_dims", stress_dims)
    report = ver.run_families(["stress", "socle"], SEED)
    assert report.ok
    # the stress family ranks each seed once and takes no socle; the
    # natural embedding of the octahedron is ranked too
    assert dim_seeds == Counter({(name, seed): 1 for name in SHRUNK
                                 for seed in (SEED, SEED + st.SECOND_SEED_OFFSET)}
                                ) + Counter({("octahedron", None): 1})
    assert calls == SOCLE_CALLS


def test_second_run_recomputes(calls):
    ver.run_families(["stress", "socle"], SEED)
    first = Counter(calls)
    calls.clear()
    ver.run_families(["stress", "socle"], SEED)
    assert calls == first == SOCLE_CALLS


def test_socle_alone_matches_combined_run(calls):
    combined = socle_rows(ver.run_families(["stress", "socle"], SEED))
    calls.clear()
    alone = socle_rows(ver.run_families(["socle"], SEED))
    assert calls == SOCLE_CALLS
    assert alone == combined
    assert len(alone) == 2 + 3 + 1  # octahedron k=0..1, K-2-4 k=0..2, the level row


def test_stress_alone_ranks_only(calls):
    # without the socle family the first seed needs ranks, not socles
    report = ver.run_families(["stress"], SEED)
    assert report.ok
    assert calls == Counter()


def test_facet_minors_ranked_once_per_sphere_and_seed(made, monkeypatch):
    # rows_stress ranks all degrees of an embedding in one stress_dims
    # call, so the l.s.o.p. check ranks each facet minor once per
    # embedding: two seeds, and the octahedron's natural coordinates
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
    assert all(r.holds for r in ver.rows_stress(SEED, functools.cache(cat.build), None))
    facets = {name: len(cat.build(name).complex.facets) for name in SHRUNK}
    assert minors == Counter({(name, seed): n for name, n in facets.items()
                              for seed in (SEED, SEED + st.SECOND_SEED_OFFSET)}
                             ) + Counter({("octahedron", None): facets["octahedron"]})


def test_oracle_run_numbers_each_complex_once(monkeypatch):
    # the level counterexample's K-2-5, built from its parameters, shares
    # the socle family's socle, and K-2-4's level row shares its own; the
    # only eliminations over Q left are K-2-5's degree-2 socle and the
    # support counterexample's exported basis
    numbered, eliminations = Counter(), []
    real_numbers, real_kernel = st.stress_numbers, linalg.kernel_basis

    def stress_numbers(c, e):
        numbered[(c, e.seed)] += 1
        return real_numbers(c, e)

    def kernel_basis(rows, columns):
        eliminations.append(len(columns))
        return real_kernel(rows, columns)

    monkeypatch.setattr(st, "stress_numbers", stress_numbers)
    monkeypatch.setattr(linalg, "kernel_basis", kernel_basis)
    report = ver.run_families(list(ver.FAMILIES), SEED, [("level", 3, 1), ("support", 1)])
    assert report.ok
    assert numbered and max(numbered.values()) == 1
    assert len(eliminations) == 2


@pytest.mark.parametrize("u, k, socle", [(3, 1, "[0, 0, 1, 1]"), (4, 1, "[0, 0, 0, 1, 1]"),
                                         (5, 1, None), (6, 2, None)])
def test_level_counterexample_alone_keeps_its_socle_row(capsys, u, k, socle):
    # the socle row reads the run's socle even without the socle family,
    # and is skipped above u = 4
    argv = ["verify", "--counterexample", "level", "--u", str(u), "--k", str(k), "--json"]
    assert cli.main(argv) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    rows = [(c["lhs"], c["holds"]) for c in checks if c["id"] == "counterexample-level-socle"]
    assert rows == ([(socle, True)] if socle else [])
