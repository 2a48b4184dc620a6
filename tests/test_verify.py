"""What the verify families share within one ``verify.run_families``
call: each catalog sphere is built once, so every family reads the same
complex objects and their memoized faces, missing faces and homology
verdict, and each complex has one ``stress.StressSpaces`` under the
seed's generic embedding, so its lower bound, its stresses in each
degree and its socle are computed once, for the families and the
counterexamples alike."""

import functools
import json
import subprocess
import sys
from collections import Counter

import pytest

from spherestress import catalog as cat
from spherestress import cli
from spherestress import graphs as gr
from spherestress import linalg
from spherestress import stress as st
from spherestress import verify as ver

SOCLE_IDS = {"socle-equals-missing-count", "socle-middle-at-least-missing-count",
             "level-up-to-socle-degree"}
SEED = 17
SECOND = SEED + st.SECOND_SEED_OFFSET
SHRUNK = ("octahedron", "K-2-4")
HALF = {"octahedron": 1, "K-2-4": 2}  # floor(d/2)


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


def count_socles(monkeypatch, key):
    """Count the socles computed (``StressSpaces.socle``), keyed by
    ``key(spaces)`` and skipped where it returns None."""
    counter = Counter()
    real = st.StressSpaces.socle.func

    def socle(spaces):
        k = key(spaces)
        if k is not None:
            counter[k] += 1
        return real(spaces)

    prop = functools.cached_property(socle)
    prop.__set_name__(st.StressSpaces, "socle")
    monkeypatch.setattr(st.StressSpaces, "socle", prop)
    return counter


@pytest.fixture
def calls(made, monkeypatch):
    """Count, on the shrunken residual catalog's spheres, the degrees
    whose stresses are computed (the first ``StressSpaces.stresses``
    request of each degree, not every request) keyed by (sphere name,
    embedding seed, degree), the ``_cohen_macaulay_h`` calls keyed by
    (sphere name, embedding seed) and the socles keyed by (sphere name,
    embedding seed)."""
    counters = {"stresses": Counter(), "bounds": Counter()}
    real_stresses, real_h = st.StressSpaces.stresses, st._cohen_macaulay_h

    def name_of(c):
        return made[id(c)][1] if id(c) in made else None

    def stresses(spaces, k):
        name = name_of(spaces.complex)
        if name and k not in spaces._by_degree:
            counters["stresses"][(name, spaces.embedding.seed, k)] += 1
        return real_stresses(spaces, k)

    def cohen_macaulay_h(c, e, *args):
        if name_of(c):
            counters["bounds"][(name_of(c), e.seed)] += 1
        return real_h(c, e, *args)

    monkeypatch.setattr(st.StressSpaces, "stresses", stresses)
    monkeypatch.setattr(st, "_cohen_macaulay_h", cohen_macaulay_h)
    counters["socles"] = count_socles(
        monkeypatch, lambda sp: (name_of(sp.complex), sp.embedding.seed)
        if name_of(sp.complex) else None)
    return counters


# the socle family's socles: one per residual sphere, K-2-4's shared
# with the level row
SOCLE_CALLS = Counter({("octahedron", SEED): 1, ("K-2-4", SEED): 1})
# the stress family's embeddings: two seeds per sphere and the
# octahedron's natural coordinates
EMBEDDINGS = Counter({(name, seed): 1 for name in SHRUNK for seed in (SEED, SECOND)}
                     ) + Counter({("octahedron", None): 1})


def socle_rows(report):
    return [r for r in report.checks if r.check_id in SOCLE_IDS]


def test_each_sphere_built_and_judged_once_per_run(monkeypatch, computations):
    builds = Counter()
    names = {}  # id of a built complex -> (complex, name)
    real_build = cat.build

    def build(name):
        builds[name] += 1
        sphere = real_build(name)
        names[id(sphere.complex)] = (sphere.complex, name)
        return sphere

    monkeypatch.setattr(cat, "build", build)
    judged = computations("_z2_sphere")
    assert ver.run_families(list(ver.FAMILIES), SEED).ok
    assert set(builds) == set(cat.catalog_names())
    assert max(builds.values()) == 1
    verdicts = Counter(names[id(c)][1] for c in judged if id(c) in names)
    assert verdicts and max(verdicts.values()) == 1


def test_stress_family_ranks_both_seeds(calls):
    # the stress family ranks degrees 1..floor(d/2) of each embedding;
    # the socle family reads the first seed's, adding only the degree
    # above, so no degree of an embedding is computed twice
    report = ver.run_families(["stress", "socle"], SEED)
    assert report.ok
    assert calls["stresses"] == Counter(
        {(name, seed, k): 1 for name, seed in EMBEDDINGS
         for k in range(1, HALF[name] + (2 if seed == SEED else 1))})
    assert max(calls["stresses"].values()) == 1
    assert calls["bounds"] == EMBEDDINGS
    assert calls["socles"] == SOCLE_CALLS


def test_second_run_recomputes(calls):
    ver.run_families(["stress", "socle"], SEED)
    first = {name: Counter(c) for name, c in calls.items()}
    for c in calls.values():
        c.clear()
    ver.run_families(["stress", "socle"], SEED)
    assert calls == first
    assert calls["socles"] == SOCLE_CALLS
    assert calls["bounds"] == EMBEDDINGS


def test_socle_alone_matches_combined_run(calls):
    combined = socle_rows(ver.run_families(["stress", "socle"], SEED))
    for c in calls.values():
        c.clear()
    alone = socle_rows(ver.run_families(["socle"], SEED))
    assert calls["socles"] == SOCLE_CALLS
    assert calls["stresses"] == Counter({(name, SEED, k): 1 for name in SHRUNK
                                         for k in range(1, HALF[name] + 2)})
    assert alone == combined
    assert len(alone) == 2 + 3 + 1  # octahedron k=0..1, K-2-4 k=0..2, the level row


def test_stress_alone_ranks_only(calls):
    # without the socle family no embedding needs the degree above
    # floor(d/2), and no socle is taken
    report = ver.run_families(["stress"], SEED)
    assert report.ok
    assert calls["socles"] == Counter()
    assert max(k for name, _, k in calls["stresses"]) == max(HALF.values())
    assert all(k <= HALF[name] for name, _, k in calls["stresses"])


def test_facet_minors_ranked_once_per_sphere_and_seed(made, monkeypatch):
    # each embedding's lower bound is checked once for all its degrees:
    # two seeds, and the octahedron's natural coordinates; the check
    # ranks the facet minors on the prefix trie of the sorted facets, one
    # coordinate row inserted per distinct prefix
    checks, inserts = Counter(), Counter()
    checking = []  # (sphere name, seed) of the running l.s.o.p. check, or None
    real_h, real_insert = st._cohen_macaulay_h, linalg.SparseRREF.insert

    def cohen_macaulay_h(c, e, *args):
        checking.append((made[id(c)][1], e.seed) if id(c) in made else None)
        if checking[-1]:
            checks[checking[-1]] += 1
        try:
            return real_h(c, e, *args)
        finally:
            checking.pop()

    def insert(rr, vec):
        if checking and checking[-1]:
            inserts[checking[-1]] += 1
        return real_insert(rr, vec)

    monkeypatch.setattr(st, "_cohen_macaulay_h", cohen_macaulay_h)
    monkeypatch.setattr(linalg.SparseRREF, "insert", insert)
    assert ver.run_families(["stress"], SEED).ok
    prefixes = {name: len({tuple(sorted(f))[:i] for f in cat.build(name).complex.facets
                           for i in range(1, len(f) + 1)}) for name in SHRUNK}
    runs = [(name, seed) for name in SHRUNK for seed in (SEED, SECOND)]
    runs.append(("octahedron", None))
    assert checks == Counter(runs)
    assert inserts == Counter({run: prefixes[run[0]] for run in runs})


def test_oracle_run_numbers_each_complex_once(monkeypatch):
    # the level counterexample's K-2-5, built from its parameters, shares
    # the socle family's socle, and K-2-4's level row shares its own; the
    # two-sided bound settles every socle mod p, and the support
    # counterexample reads its dimension mod p: no elimination over Q
    eliminations = []
    real_kernel = linalg.kernel_basis
    numbered = count_socles(monkeypatch, lambda sp: (sp.complex, sp.embedding.seed))

    def kernel_basis(rows, columns):
        eliminations.append(len(columns))
        return real_kernel(rows, columns)

    monkeypatch.setattr(linalg, "kernel_basis", kernel_basis)
    report = ver.run_families(list(ver.FAMILIES), SEED, [("level", 3, 1), ("support", 1)])
    assert report.ok
    assert numbered and max(numbered.values()) == 1
    assert eliminations == []


def test_degenerate_second_seed_fails_seed_stable_rows(made, degenerate_second_seed, capsys):
    # the second seed puts every vertex in a hyperplane, where the stress
    # dimensions jump: the seed-stable rows fail, and the CLI reports a
    # failed check (exit 1), not a degenerate embedding (exit 3)
    report = ver.run_families(["stress"], SEED)
    failed = {r.target: (r.lhs, r.rhs) for r in report.checks if not r.holds}
    assert failed == {"K-2-4[k=1]": ("2", "3"), "K-2-4[k=2]": ("2", "5"),
                      "octahedron[k=1]": ("2", "3")}
    assert {r.check_id for r in report.checks if not r.holds} == {"stress-dim-seed-stable"}
    assert cli.main(["verify", "--family", "stress"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and "FAILURES ABOVE" in out


@pytest.mark.parametrize("u, k, socle", [(3, 1, "[0, 0, 1, 1]"), (4, 1, "[0, 0, 0, 1, 1]"),
                                         (5, 1, "[0, 0, 0, 0, 1, 1]"), (6, 2, None)])
def test_level_counterexample_alone_keeps_its_socle_row(capsys, u, k, socle):
    # the socle row reads the run's socle even without the socle family,
    # and is skipped above u = 5
    argv = ["verify", "--counterexample", "level", "--u", str(u), "--k", str(k), "--json"]
    assert cli.main(argv) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    rows = [(c["lhs"], c["holds"]) for c in checks if c["id"] == "counterexample-level-socle"]
    assert rows == ([(socle, True)] if socle else [])


def test_every_explained_statement_yields_a_row(capsys):
    assert cli.main(["verify", "--all", "--json", "--seed", str(SEED)]) == 0
    used = {c["id"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert used == set(ver.EXPLAIN)


def test_alpha_family_finds_each_alpha_once(monkeypatch):
    # the four g vs alpha statements and the Turan bound read one alpha
    # per roster sphere: the residual catalog and cross-7
    graphs = []
    real = gr.independence_number

    def independence_number(g, *args):
        graphs.append(g)
        return real(g, *args)

    monkeypatch.setattr(gr, "independence_number", independence_number)
    assert ver.run_families(["alpha-bounds"], SEED).ok
    assert len(graphs) == len(cat.RESIDUAL) + 1 == 17
    assert len(set(graphs)) == len(graphs)


# every sphere named by a fixed roster of the table
FIXED_ROSTERS = {*(f"boundary-simplex-{d}" for d in range(2, 9)), "octahedron", "K-2-4",
                 "cross-4", "cross-5", "cross-6", "cross-7", "polytope-1", "polytope-2"}


def test_rosters_read_the_catalog_lists_at_run_time(monkeypatch):
    # with every catalog list shrunk, a run builds only the shrunken lists'
    # spheres and those that the table names itself
    builds = Counter()
    real = cat.build

    def build(name):
        builds[name] += 1
        return real(name)

    monkeypatch.setattr(cat, "build", build)
    monkeypatch.setattr(cat, "RESIDUAL", ("cyclejoin-3-3",))
    monkeypatch.setattr(cat, "S24", ("cyclejoin-3-4",))
    monkeypatch.setattr(cat, "catalog_names", lambda: ["cycle-5"])
    report = ver.run_families(list(ver.FAMILIES), SEED)
    assert report.ok
    assert set(builds) == FIXED_ROSTERS | {"cyclejoin-3-3", "cyclejoin-3-4", "cycle-5"}
    for name in ("cyclejoin-3-3", "cyclejoin-3-4", "cycle-5"):
        assert any(r.target.startswith(name) for r in report.checks), name


IMPORT_SNIPPET = """
import spherestress.catalog as cat
import spherestress.complex_core as cc
built = []
real_build, real_level = cat.build, cc.SimplicialComplex._level
cat.build = lambda name: built.append(name) or real_build(name)
cc.SimplicialComplex._level = lambda c, k: built.append(k) or real_level(c, k)
import spherestress.verify
print(built)
"""


def test_import_builds_no_sphere_and_no_face_level():
    out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
