"""Tests for the named-sphere catalog and the two counterexample verifiers."""

from fractions import Fraction

import pytest

import spherestress as ss
from spherestress import verify as ver


class TestBuildK:
    def test_K24(self):
        s = ss.build_K(2, 5)
        assert s.name == "K-2-4"
        assert len(s.complex.vertices) == 8

    def test_K25_is_triple_join(self):
        s = ss.build_K(2, 6)
        expected = ss.join(ss.boundary_simplex(2), ss.boundary_simplex(2),
                           ss.boundary_simplex(2))
        assert s.complex == expected

    def test_degenerate_third_factor(self):
        # d = 2i: the third factor is the empty complex, leaving a double join
        s = ss.build_K(2, 4)
        assert s.complex == ss.join(ss.boundary_simplex(2), ss.boundary_simplex(2))

    def test_octahedron_case(self):
        s = ss.build_K(1, 3)
        assert s.complex == ss.build("octahedron").complex

    def test_range_gate(self):
        with pytest.raises(ValueError):
            ss.build_K(1, 4)  # 3i < d
        with pytest.raises(ValueError):
            ss.build_K(3, 5)  # 2i > d


class TestExampleFormula:
    def test_u3_k1_bands(self):
        assert [ss.example_g_formula(3, 1, j) for j in range(4)] == [1, 2, 3, 1]

    def test_top_band(self):
        assert ss.example_g_formula(3, 1, 3) == 1  # 2u+1-2j at j=u

    def test_middle_band(self):
        assert ss.example_g_formula(7, 2, 5) == 5  # 2k+1 on 2k+1 <= j <= u-k

    def test_empty_middle_band_at_u_equals_3k(self):
        # at u = 3k the middle band is empty and j = 2k+1 falls in the top band
        assert ss.example_g_formula(6, 2, 5) == 3  # 2u+1-2j = 13-10

    @pytest.mark.parametrize("u,k", [(3, 1), (4, 1), (6, 2), (7, 2)])
    def test_matches_h_product_oracle(self, u, k):
        sphere = ss.build_K(u - k, 2 * u)
        g = ss.g_vector(sphere.complex)
        for j in range(u + 1):
            assert g[j] == ss.example_g_formula(u, k, j), (u, k, j)

    @pytest.mark.parametrize("u,k", [(3, 1), (4, 1), (6, 2), (7, 2), (9, 3)])
    def test_band_boundary_consistency(self, u, k):
        # the piecewise value is 2k+1 at both ends of the middle band
        assert ss.example_g_formula(u, k, 2 * k) == 2 * k + 1
        if u - k >= 2 * k + 1:
            assert ss.example_g_formula(u, k, u - k) == 2 * k + 1
        # extending the top band down to j = u-k would also give 2k+1
        assert 2 * u + 1 - 2 * (u - k) == 2 * k + 1

    def test_range_gates(self):
        with pytest.raises(ValueError):
            ss.example_g_formula(2, 1, 0)
        with pytest.raises(ValueError):
            ss.example_g_formula(3, 1, 4)


class TestCounterexamplePolytope:
    def test_m1_geometry(self):
        s = ss.build_counterexample_polytope(1)
        assert len(s.complex.vertices) == 9
        assert s.natural_coords.d == 6
        forms = ss.theta_forms(s.natural_coords)
        assert forms[0] == {1: Fraction(1), 3: Fraction(-1)}

    def test_m1_complex_is_K25(self):
        s = ss.build_counterexample_polytope(1)
        assert s.complex == ss.build_K(2, 6).complex

    def test_m1_missing_faces(self):
        s = ss.build_counterexample_polytope(1)
        got = {tuple(sorted(m.vertex_set)) for m in ss.missing_faces(s.complex)}
        assert got == {(1, 2, 3), (4, 5, 6), (7, 8, 9)}

    def test_m2_shape(self):
        s = ss.build_counterexample_polytope(2)
        assert len(s.complex.vertices) == 13
        assert s.complex.dim == 9
        assert s.natural_coords.d == 10

    def test_gate(self):
        with pytest.raises(ValueError):
            ss.build_counterexample_polytope(0)


class TestLevelCounterexample:
    def test_u3_k1(self):
        rep = ss.verify_counterexample_level(3, 1)
        assert rep.g == (1, 2, 3, 1)
        assert rep.formula_matches and rep.g_top == 1
        assert (rep.g1, rep.g_top_minus1) == (2, 3)
        assert not rep.level_verdict.holds
        assert rep.reproduced
        socle = ss.socle_dims(rep.complex, ss.generic_embedding(rep.complex, 7))
        assert socle == [0, 0, 1, 1]
        assert not ss.is_level(socle, 3).holds

    def test_u4_k1(self):
        rep = ss.verify_counterexample_level(4, 1)
        assert rep.g == (1, 2, 3, 3, 1)
        assert rep.reproduced

    def test_truncation_still_passes_level_corollary(self):
        rep = ss.verify_counterexample_level(3, 1)
        # u~ = min(u, floor((d-1)/2)) = 2: the failure lives beyond the cut
        assert ss.corollary_level_g_check(list(rep.g), 2).holds

    def test_socle_skipped_above_limit(self):
        assert ss.verify_counterexample_level(6, 2).reproduced
        report = ver.run_families([], 7, [("level", 6, 2)])
        assert report.ok
        assert "counterexample-level-socle" not in {r.check_id for r in report.checks}

    def test_gates(self):
        with pytest.raises(ValueError):
            ss.verify_counterexample_level(2, 1)
        with pytest.raises(ValueError):
            ss.verify_counterexample_level(30, 1)


class TestSupportCounterexample:
    def test_m1_full_report(self):
        rep = ss.verify_counterexample_support(1)
        assert rep.operator_equations_hold
        assert rep.stress_space_dim == 1
        assert rep.explicit_stress_spans
        assert rep.mixed_coefficient == 0
        assert rep.candidate_faces == rep.unsupported_faces == 27
        assert rep.derivative_span_dim == 2 < rep.g_top_minus1 == 3
        assert rep.reproduced

    def test_explicit_stress_structure(self):
        poly, f_y = ss.support_stress_polynomial(1)
        # (y1-y3)(y2-y3)(y1-y2) has no y1*y2*y3 term and no cubes
        assert f_y.get((1, 1, 1), Fraction(0)) == 0
        assert (3, 0, 0) not in f_y
        assert poly.degree == 3
        # symmetry inside a group: d/dx_1 equals d/dx_2
        d1 = ss.derivative(poly, (1,))
        d2 = ss.derivative(poly, (2,))
        assert d1.terms == d2.terms

    def test_group_derivative_relation(self):
        # the three group derivatives sum to zero, forcing the span gap
        poly, _ = ss.support_stress_polynomial(1)
        total = {}
        for v in (1, 4, 7):
            for m, c in ss.derivative(poly, (v,)).terms.items():
                total[m] = total.get(m, Fraction(0)) + c
        assert not any(total.values())

    @pytest.mark.slow
    def test_m2_natural_dims_match_g(self):
        sphere = ss.build_counterexample_polytope(2)
        g = ss.g_vector(sphere.complex)
        assert list(g) == [1, 2, 3, 3, 3, 1]
        for k in range(1, 6):
            assert ss.stress_dim(sphere.complex, sphere.natural_coords, k) == g[k]


class TestRegistry:
    def test_all_names_build(self):
        for name in ss.catalog_names():
            sphere = ss.build(name)
            assert sphere.complex.facets, name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            ss.build("no-such-sphere")

    def test_build_family(self):
        assert ss.build_family("K", [2, 6]).complex == ss.build("K-2-5").complex
        assert ss.build_family("cross", [3]).complex == ss.build("octahedron").complex
        assert ss.build_family("cycle", [5]).complex == ss.cycle(5)
        with pytest.raises(ValueError):
            ss.build_family("widget", [1])

    def test_expected_invariants_validated(self):
        # these builders carry pinned expected vectors and verify on build
        for name in ("octahedron", "K-2-4", "K-2-5"):
            assert ss.build(name).expected is not None

    def test_natural_coordinate_dimensions(self):
        for name in ("octahedron", "cross-5", "polytope-1"):
            sphere = ss.build(name)
            assert sphere.natural_coords.d == sphere.complex.dim + 1
