"""Tests for the reduction machinery on 4-spheres with small missing faces."""

from fractions import Fraction

import pytest

import spherestress as ss
from spherestress.s24 import violates_condition_two


def subdivide_edge(c, u, v, new):
    """Replace the star of the edge uv with the cone from a new vertex
    over its boundary; keeps spheres spheres and, here, keeps all
    missing faces in dimension <= 2."""
    e = frozenset({u, v})
    facets = [f for f in c.facets if not e <= f]
    for f in c.facets:
        if e <= f:
            facets += [(f - {u}) | {new}, (f - {v}) | {new}]
    return ss.from_facets([tuple(x) for x in facets])


def glued_sphere():
    """Two copies of a 9-vertex sphere glued along the join of two empty
    triangles, with two interior vertices on each side.

    The building block Q is K(2,4) (triangles 123, 456, suspension pair
    7, 8) with the edge {1,7} subdivided at 9; lk(8, Q) is still the
    3-sphere on vertices 1..6, so the antistar of 8 is a 4-ball with
    that boundary and interior {7, 9}.  The second copy has its interior
    relabeled to {10, 11}.
    """
    q = subdivide_edge(ss.build("K-2-4").complex, 1, 7, 9)
    side = ss.antistar(q, 8)
    other = ss.relabel(side, {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 10, 9: 11})
    return ss.from_facets([tuple(f) for f in side.facets | other.facets])


class TestAdmissibleContractions:
    def test_K24_has_none(self):
        assert ss.admissible_contractions(ss.build("K-2-4").complex) == []

    def test_cyclejoin_5_3_has_some(self):
        c = ss.build("cyclejoin-3-5").complex
        edges = ss.admissible_contractions(c)
        assert edges
        for e in edges:
            u, v = sorted(e)
            contracted = ss.contract_edge(c, u, v)
            assert ss.max_missing_dim(contracted) <= 2

    def test_edges_in_missing_faces_excluded(self):
        c = ss.build("K-2-4").complex
        # {1,2} lies inside the missing triangle 123: not even a candidate
        for e in ss.admissible_contractions(c):
            assert not e <= frozenset({1, 2, 3})

    def test_class_gate(self):
        with pytest.raises(ss.NotInS24):
            ss.admissible_contractions(ss.build("octahedron").complex)


class TestContractionIdentity:
    def test_drop_equals_link_g1(self):
        c = ss.build("cyclejoin-3-5").complex
        for e in ss.admissible_contractions(c)[:6]:
            before, after, g1_link = ss.contraction_identity_check(c, e)
            assert before - after == g1_link, sorted(e)

    def test_known_drop(self):
        # contracting an edge of the 6-cycle factor drops g_2 by exactly 1
        c = ss.join(ss.boundary_simplex(1), ss.cycle(6), ss.cycle(3))
        edge = frozenset({3, 4})  # inside the relabeled 6-cycle {3..8}
        assert edge in set(ss.admissible_contractions(c))
        before, after, g1_link = ss.contraction_identity_check(c, edge)
        assert g1_link == 1 and before - after == 1


class TestInducedGamma:
    def test_K24_detection(self):
        hits = ss.find_induced_gamma(ss.build("K-2-4").complex)
        assert len(hits) == 1
        w, sizes = hits[0]
        assert sorted(w) == [1, 2, 3, 4, 5, 6]
        assert sizes == (1, 1)
        assert violates_condition_two(hits) == []

    def test_flag_sphere_has_none(self):
        assert ss.find_induced_gamma(ss.build("cross-5").complex) == []

    def test_cyclejoin_with_one_triangle_factor(self):
        # only one missing 2-face: no pair of disjoint missing triangles
        assert ss.find_induced_gamma(ss.build("cyclejoin-3-4").complex) == []

    def test_glued_sphere_violates_condition_two(self):
        c = glued_sphere()
        hits = ss.find_induced_gamma(c)
        # subdivision creates extra missing triangles ({2,3,9} and {2,3,11}),
        # but only the original separating 3-sphere has both sides of size 2
        assert frozenset(range(1, 7)) in {w for w, _ in hits}
        sizes = dict(hits)
        assert sizes[frozenset(range(1, 7))] == (2, 2)
        assert violates_condition_two(hits) == [frozenset(range(1, 7))]

    def test_dimension_gate(self):
        with pytest.raises(ss.NotInS24):
            ss.find_induced_gamma(ss.build("octahedron").complex)


class TestSplit:
    def test_glued_sphere_splits_and_recombines(self):
        c = glued_sphere()
        assert ss.max_missing_dim(c) <= 2
        assert ss.is_z2_homology_sphere(c)
        w = frozenset(range(1, 7))
        d1, d2 = ss.split_along_gamma(c, w)
        # each summand is a 9-vertex 4-sphere in the same class
        for side in (d1, d2):
            assert len(side.vertices) == 9
            assert ss.max_missing_dim(side) <= 2
            assert ss.is_z2_homology_sphere(side)
        # additivity: g2 of the glued sphere = sum of the sides minus 2
        g2 = ss.g_vector(c)[2]
        assert g2 == 4
        assert g2 == ss.g_vector(d1)[2] + ss.g_vector(d2)[2] - 2
        # dropping the two cone caps and re-gluing reproduces the input
        apex1 = max(c.vertices) + 1
        apex2 = apex1 + 1
        rest = {f for f in d1.facets if apex1 not in f} \
            | {f for f in d2.facets if apex2 not in f}
        assert ss.from_facets([tuple(f) for f in rest]) == c

    def test_K24_split_refused_on_sizes(self):
        c = ss.build("K-2-4").complex
        with pytest.raises(ValueError, match="interior vertices"):
            ss.split_along_gamma(c, frozenset({1, 2, 3, 4, 5, 6}))

    def test_subset_must_induce_gamma(self):
        c = ss.build("K-2-4").complex
        with pytest.raises(ValueError):
            ss.split_along_gamma(c, frozenset({1, 2, 3, 4, 5, 7}))


class TestReductionReport:
    def test_cyclejoin_reduces_to_minimizer(self):
        c = ss.build("cyclejoin-3-5").complex
        rep = ss.reduction_report(c)
        assert rep.trace  # at least one contraction applied
        assert rep.reduced
        assert rep.admissible_edges == ()
        assert len(rep.final.vertices) == 8
        assert ss.are_isomorphic(rep.final, ss.build("K-2-4").complex)

    def test_K24_already_reduced(self):
        rep = ss.reduction_report(ss.build("K-2-4").complex)
        assert rep.reduced and rep.trace == ()

    def test_glued_sphere_not_reduced(self):
        # condition two fails before any contraction
        assert violates_condition_two(ss.find_induced_gamma(glued_sphere()))


class TestMainTheorem:
    def test_tight_at_K24(self):
        g2, bound, holds = ss.verify_theorem_main_s24(ss.build("K-2-4").complex)
        assert (g2, bound, holds) == (2, Fraction(2), True)

    def test_catalog_instances(self):
        for name in ("cross-5", "cyclejoin-4-5", "cyclejoin-5-6"):
            c = ss.build(name).complex
            g2, bound, holds = ss.verify_theorem_main_s24(c)
            assert holds, name
            assert Fraction(g2) >= Fraction(len(c.vertices), 4), name

    def test_cyclejoin_5_4_example(self):
        c = ss.build("cyclejoin-4-5").complex
        g2, bound, holds = ss.verify_theorem_main_s24(c)
        assert len(c.vertices) == 11 and bound == Fraction(16, 5)
        assert g2 >= bound

    def test_sphere_validation(self):
        ball = ss.cone(ss.build("K-2-4").complex)  # a 5-ball, d = 5 complex? no:
        # the cone is 5-dimensional, so the class gate fires first
        with pytest.raises(ss.NotInS24):
            ss.verify_theorem_main_s24(ball)


class TestProbeAndClassifier:
    def test_probe_nevo(self):
        g2, g1, ok = ss.probe_nevo(ss.build("K-2-4").complex)
        assert (g2, g1, ok) == (2, 2, True)

    def test_classifier_on_K24_links(self):
        c = ss.build("K-2-4").complex
        assert ss.classify_g2_one(ss.link(c, {7})) == ("join-of-simplex-boundaries", 2, 2)
        assert ss.classify_g2_one(ss.link(c, {1})) == ("cycle-join-simplex-boundary", 4)

    def test_classifier_matches_isomorphism(self):
        c = ss.build("K-2-4").complex
        lk = ss.link(c, {1})
        kind = ss.classify_g2_one(lk)
        assert kind == ("cycle-join-simplex-boundary", 4)
        model = ss.join(ss.cycle(4), ss.boundary_simplex(2))
        assert ss.are_isomorphic(lk, model)

    def test_classifier_gate(self):
        with pytest.raises(ValueError):
            ss.classify_g2_one(ss.build("K-2-5").complex)  # g_2 = 3
