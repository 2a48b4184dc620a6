"""Tests for graph extraction, exact alpha, and the g vs alpha bounds of
``verify.STATEMENTS``."""

from fractions import Fraction
from itertools import combinations

import pytest

import spherestress as ss
from spherestress import catalog as cat
from spherestress import verify as ver
from spherestress.graphs import Graph

ALPHA_IDS = ("g-ge-alpha", "g2-ge-(d-4)alpha", "gi-ge-(d-2i)alpha", "gi-ge-2alpha")
FLAG_IDS = ("g2-ge-(d-4)alpha", "gi-ge-(d-2i)alpha")


def alpha_exhaustive(g):
    """Independent oracle: scan all vertex subsets (graphs up to ~14 vertices)."""
    verts = list(g.vertices)
    best = 0
    for r in range(len(verts), 0, -1):
        for sub in combinations(verts, r):
            if not any(frozenset(e) <= frozenset(sub) for e in g.edges):
                return r
    return best


def petersen() -> Graph:
    outer = [frozenset({i, (i + 1) % 5}) for i in range(5)]
    inner = [frozenset({5 + i, 5 + (i + 2) % 5}) for i in range(5)]
    spokes = [frozenset({i, i + 5}) for i in range(5)]
    return Graph(tuple(range(10)), frozenset(outer + inner + spokes))


class TestGraphOf:
    def test_edge_counts(self):
        assert len(ss.graph_of(ss.build("octahedron").complex).edges) == 12
        assert len(ss.graph_of(ss.boundary_simplex(5)).edges) == 15  # complete graph
        assert len(ss.graph_of(ss.cycle(6)).edges) == 6


class TestIndependenceNumber:
    def test_against_exhaustive_oracle(self):
        for g in (ss.graph_of(ss.build("octahedron").complex),
                  ss.graph_of(ss.cycle(6)),
                  ss.graph_of(ss.cycle(7)),
                  ss.graph_of(ss.boundary_simplex(4)),
                  ss.graph_of(ss.build("K-2-4").complex),
                  ss.graph_of(ss.build("cross-5").complex),
                  petersen()):
            alpha, witness = ss.independence_number(g)
            assert alpha == alpha_exhaustive(g)
            # the witness really is independent, by direct edge scan
            assert len(witness) == alpha
            assert not any(frozenset(e) <= witness for e in g.edges)

    def test_known_values(self):
        assert ss.independence_number(ss.graph_of(ss.build("octahedron").complex))[0] == 2
        assert ss.independence_number(ss.graph_of(ss.cycle(6)))[0] == 3
        assert ss.independence_number(ss.graph_of(ss.boundary_simplex(4)))[0] == 1
        assert ss.independence_number(petersen())[0] == 4

    def test_vertex_removal_never_increases_alpha(self):
        g = ss.graph_of(ss.build("K-2-4").complex)
        alpha, _ = ss.independence_number(g)
        for v in g.vertices:
            rest = tuple(u for u in g.vertices if u != v)
            sub = Graph(rest, frozenset(e for e in g.edges if v not in e))
            assert ss.independence_number(sub)[0] <= alpha

    def test_cap(self):
        with pytest.raises(ss.VertexCapExceeded):
            ss.independence_number(ss.graph_of(ss.cycle(8)), cap=7)


class TestTuran:
    def test_formula(self):
        assert ss.turan_bound(6, 12) == Fraction(6, 5)
        assert ss.turan_bound(7, 0) == 7
        with pytest.raises(ValueError):
            ss.turan_bound(0, 0)

    def test_alpha_at_least_turan_on_catalog(self):
        for name in ("octahedron", "cross-5", "K-2-4", "K-2-5", "cyclejoin-4-6"):
            c = ss.build(name).complex
            f = ss.f_vector(c)
            alpha, _ = ss.independence_number(ss.graph_of(c))
            assert Fraction(alpha) >= ss.turan_bound(f[1], f[2]), name


def alpha_rows(name):
    """The rows of the four g vs alpha statements of ``verify`` on one
    catalog sphere, as (statement id, target suffix, lhs, rhs, holds)."""
    facts = ver.Facts(ss.build(name), spaces=None)  # no alpha statement reads a stress
    return [(sid, *row[:4]) for sid in ALPHA_IDS
            for row in ver.STATEMENTS[sid].evaluate(facts)]


class TestAlphaInequalities:
    def test_cross_5(self):
        rows = {(sid, suffix): (lhs, rhs, holds)
                for sid, suffix, lhs, rhs, holds in alpha_rows("cross-5")}
        # flag 4-sphere, alpha = 2, g = (1, 4, 5)
        assert rows[("g2-ge-(d-4)alpha", "[i=2]")] == (5, 2, True)
        assert rows[("gi-ge-(d-2i)alpha", "[i=2]")][2]

    def test_octahedron_skips_small_d(self):
        assert [r for r in alpha_rows("octahedron") if r[0] in FLAG_IDS] == []

    def test_applicable_rows_hold_on_catalog(self):
        report = ver.run_families(["alpha-bounds"], 17)
        checked = [r for r in report.checks if r.check_id in ALPHA_IDS]
        assert {r.target.split("[")[0] for r in checked} == {*cat.RESIDUAL, "cross-7"}
        assert all(r.holds for r in checked)

    def test_gate_uses_missing_dimension(self):
        # K(2,4) has a missing 2-face, so the flag-only statements give no row
        assert [r for r in alpha_rows("K-2-4") if r[0] in FLAG_IDS] == []
        assert [r for r in alpha_rows("cross-5") if r[0] in FLAG_IDS]


class TestRatioSweep:
    def test_polytope_2_probe(self):
        rows = ss.gk_ratio_sweep(ss.build("polytope-2").complex)
        assert rows, "the 9-sphere should admit at least one diagnostic row"
        for row in rows:
            assert row.g_k_plus_1 >= 1
            assert row.ratio > 0

    def test_most_spheres_have_no_applicable_k(self):
        assert ss.gk_ratio_sweep(ss.build("octahedron").complex) == []
