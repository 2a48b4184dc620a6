"""Tests for exact f/h/g/gamma computation and the link sum rules."""

from fractions import Fraction
from functools import cached_property

import pytest

import spherestress as ss
from spherestress import complex_core as cc
from spherestress import enumeration as en


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def h_oracle(f, d):
    """Independent route: expand sum_i f_{i-1} (t-1)^(d-i) term by term."""
    total = [0] * (d + 1)
    for i in range(d + 1):
        term = [1]
        for _ in range(d - i):
            term = poly_mul(term, [-1, 1])  # (t - 1)
        for j, a in enumerate(term):
            total[j] += f[i] * a
    return list(reversed(total))  # coefficients of t^(d-i) read off as h_i


def gamma_oracle(h, d):
    """Independent route: solve for gamma by brute-force linear combination."""
    cols = []
    for k in range(d // 2 + 1):
        base = [0] * (d + 1)
        binom = [1]
        for _ in range(d - 2 * k):
            binom = poly_mul(binom, [1, 1])
        for j, a in enumerate(binom):
            base[k + j] += a
        cols.append(base)
    # triangular solve from the constant coefficient upward
    gamma = []
    residual = list(h)
    for k in range(d // 2 + 1):
        gamma.append(residual[k])
        for j in range(d + 1):
            residual[j] -= gamma[k] * cols[k][j]
    assert not any(residual)
    return gamma


CATALOG_H = {
    "octahedron": [1, 3, 3, 1],
    "K-2-4": [1, 3, 5, 5, 3, 1],
    "K-2-5": [1, 3, 6, 7, 6, 3, 1],
}


class TestVectors:
    def test_f_vector_examples(self):
        assert ss.f_vector(ss.build("octahedron").complex) == [1, 6, 12, 8]
        from math import comb
        for d in range(2, 9):
            assert ss.f_vector(ss.boundary_simplex(d)) \
                == [comb(d + 1, i) for i in range(d + 1)]
        # K(2,4): brute-force face enumeration agrees with the h-product route
        k24 = ss.build("K-2-4").complex
        assert ss.f_vector(k24) == [1, 8, 27, 48, 45, 18]

    def test_h_against_oracle(self):
        for name in ("octahedron", "K-2-4", "K-2-5", "cross-5", "cyclejoin-4-5"):
            c = ss.build(name).complex
            d = c.dim + 1
            f = ss.f_vector(c)
            assert ss.h_from_f(f, d) == h_oracle(f, d)

    def test_h_known_values(self):
        for name, h in CATALOG_H.items():
            c = ss.build(name).complex
            assert ss.h_vector(c) == h
        for d in range(2, 9):
            assert ss.h_vector(ss.boundary_simplex(d)) == [1] * (d + 1)

    def test_roundtrip(self):
        for name in ss.catalog_names():
            c = ss.build(name).complex
            d = c.dim + 1
            f = ss.f_vector(c)
            assert ss.f_from_h(ss.h_from_f(f, d), d) == f

    def test_g_values(self):
        assert ss.g_vector(ss.build("K-2-5").complex) == [1, 2, 3, 1]
        assert ss.g_vector(ss.build("K-2-4").complex) == [1, 2, 2, 0]
        # g_1 = f0 - d - 1 = 4 and g_2 = d(d-3)/2 = 5 for the 5-dim cross-polytope
        assert ss.g_vector(ss.build("cross-5").complex) == [1, 4, 5, 0]

    def test_gamma_values_and_oracle(self):
        oct_ = ss.build("octahedron").complex
        assert ss.gamma_vector(oct_) == [1, 0]  # gamma_1 = f0 - 2d = 0
        for name in ("octahedron", "K-2-4", "K-2-5", "cross-6"):
            c = ss.build(name).complex
            d = c.dim + 1
            h = ss.h_vector(c)
            assert ss.gamma_from_h(h, d) == gamma_oracle(h, d)

    def test_gamma_fails_off_spheres(self):
        with pytest.raises(ValueError):
            ss.gamma_from_h([1, 2, 0], 2)

    def test_gamma_closed_forms(self):
        # gamma_1 = f_0 - 2d and gamma_2 = f_1 - (2d-3) f_0 + 2d(d-2)
        for name in ("octahedron", "cross-5", "cross-6", "K-2-4", "K-2-5",
                     "cyclejoin-4-6"):
            c = ss.build(name).complex
            d = c.dim + 1
            f = ss.f_vector(c)
            gamma = ss.gamma_vector(c)
            assert gamma[1] == f[1] - 2 * d, name
            if len(gamma) > 2:
                assert gamma[2] == f[2] - (2 * d - 3) * f[1] + 2 * d * (d - 2), name

    def test_euler_characteristic(self):
        # with f = (f_{-1}, f_0, ..., f_{d-1}), the alternating sum
        # 1 - f_0 + f_1 - ... equals (-1)^d on a (d-1)-sphere
        for name in ss.catalog_names():
            c = ss.build(name).complex
            f = ss.f_vector(c)
            alt = sum((-1) ** i * f[i] for i in range(len(f)))
            assert alt == (-1) ** (c.dim + 1), name

    def test_length_validation(self):
        with pytest.raises(ValueError):
            ss.h_from_f([1, 3, 3], 3)
        with pytest.raises(ValueError):
            ss.gamma_from_h([1, 1], 2)


class TestDehnSommerville:
    def test_examples(self):
        assert ss.check_dehn_sommerville(ss.h_vector(ss.build("octahedron").complex))
        assert ss.check_dehn_sommerville([1, 3, 5, 5, 3, 1])
        assert not ss.check_dehn_sommerville([1, 2, 0])

    def test_catalog_spheres_symmetric_and_odd_top_g(self):
        for name in ss.catalog_names():
            c = ss.build(name).complex
            h = ss.h_vector(c)
            assert ss.check_dehn_sommerville(h), name
            d = c.dim + 1
            if d % 2 == 1:
                assert ss.g_vector(c)[-1] == 0, name


class TestG2Linear:
    def test_examples(self):
        assert ss.g2_linear(8, 27, 5) == 2          # matches the join count
        assert ss.g2_linear(10, 40, 5) == 5         # 5-dim cross-polytope
        from math import comb
        for d in range(3, 8):
            assert ss.g2_linear(d + 1, comb(d + 1, 2), d) == 0
        k24 = ss.build("K-2-4").complex
        f = ss.f_vector(k24)
        assert ss.g2_linear(f[1], f[2], 5) == ss.g_vector(k24)[2] == 2


class TestLinkSumRules:
    def test_octahedron_k0(self):
        assert ss.mcmullen_residual(ss.build("octahedron").complex, 0) == 0

    def test_residuals_vanish_on_catalog(self):
        for name in ("octahedron", "cross-4", "K-2-4", "K-2-5", "cyclejoin-3-5"):
            c = ss.build(name).complex
            d = c.dim + 1
            for k in range((d - 1) // 2 + 1):
                assert ss.mcmullen_residual(c, k) == 0, (name, k)
                assert ss.gamma_mcmullen_residual(c, k) == 0, (name, k)

    def test_g_rule_on_pure_non_sphere(self):
        disk = ss.from_facets([[1, 2, 3]])
        assert ss.mcmullen_residual(disk, 0) == 0
        assert ss.mcmullen_residual(disk, 1) == 0

    def test_non_pure_rejected(self):
        c = ss.from_facets([[1, 2, 3], [3, 4]])
        with pytest.raises(ValueError):
            ss.mcmullen_residual(c, 0)

    def test_gamma_non_pure_rejected(self):
        c = ss.from_facets([[1, 2, 3], [3, 4]])
        with pytest.raises(ValueError, match="vertex-link sum rule needs a pure complex"):
            ss.gamma_mcmullen_residual(c, 0)

    def test_no_link_built_and_faces_enumerated_once(self, monkeypatch):
        facets = sorted(sorted(f) for f in ss.build("K-2-4").complex.facets)
        real_link, calls = cc.link, []
        for mod in (cc, en):  # a module that imports link by name calls its own reference
            if getattr(mod, "link", None) is real_link:
                monkeypatch.setattr(mod, "link", lambda *a: calls.append(a) or real_link(*a))
        real_faces, enumerated = cc.SimplicialComplex.__dict__["faces_by_dim"].func, []
        counting = cached_property(lambda c: enumerated.append(c) or real_faces(c))
        counting.__set_name__(cc.SimplicialComplex, "faces_by_dim")
        monkeypatch.setattr(cc.SimplicialComplex, "faces_by_dim", counting)
        c = ss.from_facets(facets)
        d = c.dim + 1
        for k in range((d - 1) // 2 + 1):
            assert ss.mcmullen_residual(c, k) == 0
            assert ss.gamma_mcmullen_residual(c, k) == 0
        assert calls == []
        assert len(enumerated) == 1 and enumerated[0] is c

    def test_k_range_validated(self):
        with pytest.raises(ValueError):
            ss.mcmullen_residual(ss.build("octahedron").complex, 2)


class TestSk2kBound:
    def test_examples(self):
        k24 = ss.build("K-2-4").complex
        lhs, rhs = ss.corollary_S_k_2k_bound(k24, 2)
        assert (lhs, rhs) == (2, Fraction(2))  # tight on the minimizer
        oct_ = ss.build("octahedron").complex
        lhs, rhs = ss.corollary_S_k_2k_bound(oct_, 1)
        assert (lhs, rhs) == (2, Fraction(2))
        c = ss.build("cyclejoin-4-4").complex  # the 5-dim cross-polytope
        lhs, rhs = ss.corollary_S_k_2k_bound(c, 2)
        assert lhs == 5 and rhs == Fraction(10, 4) and lhs >= rhs

    def test_gates(self):
        with pytest.raises(ValueError):
            ss.corollary_S_k_2k_bound(ss.build("octahedron").complex, 2)
        with pytest.raises(ValueError):
            ss.corollary_S_k_2k_bound(ss.boundary_simplex(5), 2)


class TestJoinMultiplicativity:
    def test_h_polynomial_of_join_is_product(self):
        pairs = [
            (ss.build("K-2-5").complex,
             [ss.boundary_simplex(2)] * 3),
            (ss.build("cross-4").complex,
             [ss.boundary_simplex(1)] * 4),
            (ss.build("cyclejoin-4-6").complex,
             [ss.boundary_simplex(1), ss.cycle(4), ss.cycle(6)]),
        ]
        for joined, factors in pairs:
            prod = [1]
            for fac in factors:
                prod = poly_mul(prod, ss.h_vector(fac))
            assert ss.h_vector(joined) == prod
