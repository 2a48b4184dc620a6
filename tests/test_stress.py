"""Tests for affine stress spaces, socle dimensions and cone lifts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import spherestress as ss
from spherestress import linalg
from spherestress import stress as st
from spherestress.stress import Embedding, basis_to_jsonable


def build(name):
    return ss.build(name)


class TestDimensionsEqualG:
    CASES = ["octahedron", "cross-4", "K-2-4", "K-2-5", "cyclejoin-3-4"]

    @pytest.mark.parametrize("name", CASES)
    def test_generic_two_seeds(self, name):
        c = build(name).complex
        d = c.dim + 1
        g = ss.g_vector(c)
        for seed in (1, 2):
            e = ss.generic_embedding(c, seed)
            for k in range(1, d // 2 + 1):
                assert ss.stress_dim(c, e, k) == g[k], (name, seed, k)

    def test_simplex_boundary_is_stress_free(self):
        b3 = ss.boundary_simplex(3)
        e = ss.generic_embedding(b3, 5)
        assert ss.stress_dim(b3, e, 1) == 0

    def test_natural_embeddings(self):
        oct_ = build("octahedron")
        assert ss.stress_dim(oct_.complex, oct_.natural_coords, 1) == 2
        poly = build("polytope-1")
        dims = [ss.stress_dim(poly.complex, poly.natural_coords, k) for k in (1, 2, 3)]
        assert dims == [2, 3, 1]

    def test_certified_dims(self):
        c = build("K-2-4").complex
        assert ss.certified_stress_dims(c, 2, seed=3) == 2

    def test_certificate_failure_raises(self, monkeypatch):
        calls = iter([2, 5])
        monkeypatch.setattr(ss.stress, "stress_dim", lambda *a, **k: next(calls))
        with pytest.raises(ss.DegenerateEmbeddingError):
            ss.stress.certified_stress_dims(build("octahedron").complex, 1, seed=1)


class TestBasisProperties:
    def test_every_basis_element_is_a_stress(self):
        for name in ("octahedron", "K-2-4", "K-2-5"):
            c = build(name).complex
            e = ss.generic_embedding(c, 4)
            for k in range(1, (c.dim + 1) // 2 + 1):
                basis = ss.stress_space(c, e, k)
                for omega in basis.polys:
                    assert not omega.is_zero()
                    assert ss.is_stress(c, e, omega)

    def test_deterministic_given_seed(self):
        c = build("K-2-5").complex
        e = ss.generic_embedding(c, 11)
        b1 = ss.stress_space(c, e, 2)
        b2 = ss.stress_space(c, e, 2)
        assert [p.terms for p in b1.polys] == [p.terms for p in b2.polys]

    def test_face_monomial_order_and_count(self):
        c = ss.cycle(4)
        monos = ss.face_monomials(c, 2)
        assert monos == sorted(monos)
        # squares of the 4 vertices plus the 4 edges; diagonals excluded
        assert len(monos) == 8

    def test_degree_zero_and_validation(self):
        c = ss.cycle(4)
        assert ss.face_monomials(c, 0) == [()]
        with pytest.raises(ValueError):
            ss.stress_space(c, ss.generic_embedding(c, 1), 0)

    def test_theta_forms(self):
        poly = build("polytope-1")
        forms = ss.theta_forms(poly.natural_coords)
        assert len(forms) == 7
        assert forms[0] == {1: Fraction(1), 3: Fraction(-1)}
        assert forms[-1] == {v: Fraction(1) for v in poly.complex.vertices}

    def test_basis_export_format(self):
        c = build("octahedron").complex
        e = ss.generic_embedding(c, 1)
        doc = basis_to_jsonable(ss.stress_space(c, e, 1))
        assert doc["dim"] == 2 and doc["degree"] == 1
        for entry in doc["basis"]:
            for key, val in entry.items():
                exps = [int(x) for x in key.split(",")]
                assert len(exps) == 6 and sum(exps) == 1
                num, den = val.split("/")
                assert int(den) != 0


class TestDerivatives:
    def test_identity_monomial(self):
        c = build("K-2-4").complex
        e = ss.generic_embedding(c, 2)
        omega = ss.stress_space(c, e, 2).polys[0]
        assert ss.derivative(omega, ()).terms == omega.terms

    def test_derivative_of_stress_is_stress(self):
        c = build("K-2-5").complex
        e = ss.generic_embedding(c, 2)
        for omega in ss.stress_space(c, e, 3).polys:
            for v in (1, 4, 9):
                d = ss.derivative(omega, (v,))
                assert ss.is_stress(c, e, d)

    def test_degree_underflow(self):
        c = build("octahedron").complex
        e = ss.generic_embedding(c, 1)
        omega = ss.stress_space(c, e, 1).polys[0]
        with pytest.raises(ValueError):
            ss.derivative(omega, (1, 2))

    def test_span_dim_convention_at_zero(self):
        oct_ = build("octahedron").complex
        e = ss.generic_embedding(oct_, 1)
        assert ss.derivative_span_dim(oct_, e, 0) == 1  # g_1 > 0
        b3 = ss.boundary_simplex(3)
        assert ss.derivative_span_dim(b3, ss.generic_embedding(b3, 1), 0) == 0

    def test_span_reconstructs_below_the_middle(self):
        # a 6-sphere with missing faces of dim <= 3: the degree-2 space is
        # fully reconstructed by derivatives from degree 3
        c = ss.join(ss.boundary_simplex(2), ss.boundary_simplex(2),
                    ss.boundary_simplex(3))
        e = ss.generic_embedding(c, 9)
        g = ss.g_vector(c)
        assert g[2] == 3
        assert ss.derivative_span_dim(c, e, 2) == g[2]


class TestSocleAndLevel:
    def test_socle_values(self):
        for name, expected in (("octahedron", [0, 2]),
                               ("K-2-4", [0, 0, 2]),
                               ("K-2-5", [0, 0, 1, 1])):
            sphere = build(name)
            e = ss.generic_embedding(sphere.complex, 7)
            assert ss.socle_dims(sphere.complex, e) == expected, name

    def test_socle_middle_degree_with_nonzero_missing_count(self):
        # suspension of a boundary 3-simplex: one missing 3-face, and at the
        # middle degree k = 1 the socle meets the count with equality here
        c = ss.suspension(ss.boundary_simplex(3))
        e = ss.generic_embedding(c, 3)
        soc = ss.socle_dims(c, e)
        counts = ss.missing_face_counts(c)
        assert counts[3] == 1
        assert soc[1] >= counts[3]
        assert soc == [0, 1, 0]

    def test_socle_below_middle_with_nonzero_missing_count(self):
        # join of a boundary 5-simplex and a square: a 6-sphere with one
        # missing 5-face, so the socle in degree 2 < 3 must equal 1 exactly
        c = ss.join(ss.boundary_simplex(5), ss.cycle(4))
        assert c.dim == 6
        e = ss.generic_embedding(c, 11)
        soc = ss.socle_dims(c, e)
        counts = ss.missing_face_counts(c)
        assert counts[5] == 1
        assert soc[2] == 1
        assert soc[:2] == [0, 0]

    def test_socle_matches_missing_counts_below_middle(self):
        for name in ("octahedron", "cross-4", "K-2-4", "K-2-5", "cyclejoin-3-5"):
            c = build(name).complex
            d = c.dim + 1
            e = ss.generic_embedding(c, 5)
            soc = ss.socle_dims(c, e)
            counts = ss.missing_face_counts(c)
            for k in range((d - 1) // 2):
                assert soc[k] == counts.get(d - k, 0), (name, k)
            k_mid = (d - 1) // 2
            assert soc[k_mid] >= counts.get(d - k_mid, 0), name

    def test_is_level(self):
        k24 = build("K-2-4")
        e = ss.generic_embedding(k24.complex, 3)
        assert ss.is_level(ss.socle_dims(k24.complex, e), 2).holds
        k25 = build("K-2-5")
        e25 = ss.generic_embedding(k25.complex, 3)
        verdict = ss.is_level(ss.socle_dims(k25.complex, e25), 3)
        assert not verdict.holds and verdict.failing_index == 2

    def test_is_level_trivial_cut(self):
        b4 = ss.boundary_simplex(4)
        assert ss.is_level(ss.socle_dims(b4, ss.generic_embedding(b4, 1)), 0).holds

    def test_is_level_range(self):
        c = build("octahedron").complex
        soc = ss.socle_dims(c, ss.generic_embedding(c, 1))  # degrees 0..1
        assert ss.is_level(soc, 1).holds
        with pytest.raises(ValueError):
            ss.is_level(soc, 2)


class TestStarWitness:
    def test_octahedron_vertex(self):
        c = build("octahedron").complex
        e = ss.generic_embedding(c, 1)
        omega = ss.star_stress_witness(c, e, {1}, 1)
        assert omega is not None
        assert omega.participates({1})
        assert ss.is_stress(c, e, omega)
        # supported inside the star: never touches the antipode (label 2)
        assert 2 not in omega.support_vertices()

    def test_K24_vertex_at_degree_two(self):
        c = build("K-2-4").complex
        e = ss.generic_embedding(c, 6)
        omega = ss.star_stress_witness(c, e, {1}, 2)
        assert omega is not None and omega.participates({1})

    def test_K25_edge_at_degree_two(self):
        c = build("K-2-5").complex
        e = ss.generic_embedding(c, 6)
        omega = ss.star_stress_witness(c, e, {1, 4}, 2)
        assert omega is not None
        for rho in ({1}, {4}, {1, 4}):
            assert omega.participates(rho)

    def test_simplex_boundary_hypothesis_failure(self):
        b4 = ss.boundary_simplex(4)
        e = ss.generic_embedding(b4, 1)
        with pytest.raises(ValueError):
            ss.star_stress_witness(b4, e, {1}, 1)

    def test_degree_range_enforced(self):
        c = build("K-2-4").complex
        e = ss.generic_embedding(c, 1)
        with pytest.raises(ValueError):
            ss.star_stress_witness(c, e, {1, 4}, 2)  # needs i <= (d-2)/2


class TestConeLift:
    def test_square(self):
        rep = ss.cone_lift_check(ss.cycle(4), 1, seed=5)
        assert rep.dim_base == 1 and rep.all_lifted

    def test_triangle_boundary_trivial(self):
        rep = ss.cone_lift_check(ss.boundary_simplex(2), 1, seed=5)
        assert rep.dim_base == 0 and rep.all_lifted

    def test_K24_degree_two(self):
        rep = ss.cone_lift_check(build("K-2-4").complex, 2, seed=5)
        assert rep.dim_base == rep.dim_cone == 2
        assert rep.all_lifted

    def test_hexagon(self):
        rep = ss.cone_lift_check(ss.cycle(6), 1, seed=12)
        assert rep.dim_base == 3 and rep.all_lifted


class TestModpFallback:
    """With the prime forced to 3 the mod-p certificate mostly fails,
    through a denominator divisible by 3 or a rank that drops mod 3;
    every answer must still be the exact one."""

    @staticmethod
    def snapshot(c, e):
        top = (c.dim + 1) // 2 + 1
        dims = [ss.stress_dim(c, e, k) for k in range(1, top + 1)]
        bases = [[p.terms for p in ss.stress_space(c, e, k).polys] for k in range(1, top + 1)]
        return dims, bases, ss.socle_dims(c, e)

    @staticmethod
    def embeddings(c):
        generic = ss.generic_embedding(c, 1)
        # integer coordinates: the operator matrices have no denominators,
        # so their certificates can fail only by a rank that drops mod 3
        integral = Embedding({v: tuple(Fraction(x.numerator) for x in cs)
                              for v, cs in generic.coords.items()}, generic.d, "generic", 1)
        return generic, integral

    def test_prime_three_gives_identical_answers(self, monkeypatch):
        cases = [(c, e) for c in (build(n).complex
                                  for n in ("octahedron", "K-2-4", "cyclejoin-3-4"))
                 for e in self.embeddings(c)]
        expected = [self.snapshot(c, e) for c, e in cases]
        outcomes = []
        modp_rank = linalg.modp_rank

        def spy(rows, *args):
            rows = list(rows)
            r = modp_rank(rows, *args)
            outcomes.append((r, linalg.rank_of(rows)))
            return r

        monkeypatch.setattr(linalg, "PRIME", 3)
        monkeypatch.setattr(linalg, "modp_rank", spy)
        assert [self.snapshot(c, e) for c, e in cases] == expected
        assert any(r is None for r, _ in outcomes)
        assert any(r is not None and r < exact for r, exact in outcomes)


def q_numbers(c, e):
    """``stress_numbers`` computed over Q alone: one exact stress basis per
    degree and the exact rank of each derivative span."""
    half = (c.dim + 1) // 2
    spaces = {k: ss.stress_space(c, e, k) for k in range(1, half + 2)}
    dims = [1] + [spaces[k].dim for k in range(1, half + 2)]
    socle = [dims[k] - ss.derivative_span_dim(c, e, k, basis_above=spaces[k + 1])
             for k in range(half + 1)]
    return dims, socle


def torus():
    """The 7-vertex triangulation of the torus."""
    return ss.from_facets([[i % 7 + 1, (i + j) % 7 + 1, (i + 3) % 7 + 1]
                           for i in range(7) for j in (1, 2)])


RP2 = [[1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 6], [1, 5, 6],
       [2, 3, 5], [2, 3, 6], [2, 4, 6], [3, 4, 5], [4, 5, 6]]


@pytest.fixture
def q_path(monkeypatch):
    """Count the exact kernels and exact ranks the stress module asks
    for: the Q path that the GF(p) certificate replaces."""
    calls = {"kernel_basis": 0, "rank_of": 0}
    for name in calls:
        real = getattr(linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(linalg, name, counted)
    return calls


class TestCohenMacaulayCertificate:
    """Dims and socles certified over GF(p) by the lower bound g_k on a
    GF(2)-sphere with an l.s.o.p. embedding; the exact Q path runs
    exactly where the certificate does not apply."""

    @staticmethod
    def dims(c, e):
        return [ss.stress_dim(c, e, k) for k in range(1, (c.dim + 1) // 2 + 2)]

    @pytest.mark.parametrize("name", ["octahedron", "cross-4", "K-2-4", "cyclejoin-3-4"])
    def test_certified_spheres_skip_q(self, name, q_path):
        c = build(name).complex
        e = ss.generic_embedding(c, 1)
        expected = q_numbers(c, e)
        q_path.update(kernel_basis=0, rank_of=0)
        assert st.stress_numbers(c, e) == expected
        assert self.dims(c, e) == expected[0][1:]
        assert q_path == {"kernel_basis": 0, "rank_of": 0}

    def test_full_column_rank_mod_p_skips_elimination(self, monkeypatch):
        # the lower bound 0 holds for any embedding, so a zero kernel mod
        # p is the exported basis over Q
        moduli = []

        class Recording(linalg.SparseRREF):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                moduli.append(self.modulus)

        c = build("octahedron").complex
        e = ss.generic_embedding(c, 1)
        monkeypatch.setattr(linalg, "SparseRREF", Recording)
        assert ss.stress_space(c, e, 2).polys == ()
        assert moduli == [linalg.PRIME]  # no elimination over Q

    def test_nonzero_socle_under_nonzero_space_falls_back(self, q_path):
        c = build("K-2-5").complex
        e = ss.generic_embedding(c, 7)
        expected = q_numbers(c, e)
        q_path.update(kernel_basis=0, rank_of=0)
        assert st.stress_numbers(c, e) == expected
        assert expected[1] == [0, 0, 1, 1]
        # only the degree-2 socle: one exact degree-3 basis, one exact span
        assert q_path == {"kernel_basis": 1, "rank_of": 1}

    def test_socle_fallback_takes_no_second_kernel_mod_p(self, monkeypatch):
        # K-2-5's degree-3 kernel is kept mod p, but its derivatives fall
        # short of the degree-2 dimension: that socle is ranked over Q
        # from the degree-3 rows, with no second kernel mod p
        c = build("K-2-5").complex
        e = ss.generic_embedding(c, 17)
        kernels = []
        real = linalg.modp_kernel

        def modp_kernel(rows, columns):
            kernels.append(len(columns))
            return real(rows, columns)
        monkeypatch.setattr(linalg, "modp_kernel", modp_kernel)
        dims, socle = st.stress_numbers(c, e)
        assert socle == [0, 0, 1, 1]
        assert len(kernels) == len(dims) - 1 == 4  # one per degree 1..4

    def check_falls_back(self, c, e, q_path):
        expected = q_numbers(c, e)
        dims = expected[0][1:]
        nonzero = sum(1 for x in dims if x)
        q_path.update(kernel_basis=0, rank_of=0)
        assert st.stress_numbers(c, e) == expected
        # every nonzero kernel is eliminated over Q, and no degree twice
        assert nonzero <= q_path["kernel_basis"] <= len(dims)
        q_path.update(kernel_basis=0, rank_of=0)
        assert self.dims(c, e) == dims
        assert nonzero <= q_path["kernel_basis"] <= len(dims)
        assert q_path["rank_of"] == 0

    def test_prime_three(self, q_path, monkeypatch):
        monkeypatch.setattr(linalg, "PRIME", 3)
        c = build("K-2-4").complex
        self.check_falls_back(c, ss.generic_embedding(c, 1), q_path)

    def test_singular_facet_minor(self, q_path):
        c = build("octahedron").complex
        coords = dict(ss.generic_embedding(c, 1).coords)
        a, b, v = sorted(min(c.facets, key=sorted))
        coords[v] = tuple(x + y for x, y in zip(coords[a], coords[b]))
        self.check_falls_back(c, Embedding(coords, 3, "natural"), q_path)

    @pytest.mark.parametrize("c", [ss.from_facets(RP2), torus()], ids=["rp2", "torus"])
    def test_non_sphere(self, c, q_path):
        assert not ss.is_z2_homology_sphere(c)
        self.check_falls_back(c, ss.generic_embedding(c, 1), q_path)

    def test_non_pure(self, q_path):
        c = ss.from_facets([[1, 2, 3], [3, 4]])
        assert not c.is_pure()
        self.check_falls_back(c, ss.generic_embedding(c, 1), q_path)

    # rp2 is a non-sphere, so the lower bound is 0; K-2-4's denominators
    # divisible by 3 leave no kernel mod 3; the natural cross-4 has unit
    # facet minors, so the lower bound g_k holds, but every kernel mod 2
    # is longer than it
    @pytest.mark.parametrize("name, prime, natural", [
        ("rp2", None, False), ("K-2-4", 3, False), ("cross-4", 2, True)])
    def test_one_modp_elimination_per_degree(self, name, prime, natural, monkeypatch):
        # a kernel mod p that the certificate rejects is not eliminated
        # mod p again on the way to its kernel over Q
        if prime is not None:
            monkeypatch.setattr(linalg, "PRIME", prime)
        c = ss.from_facets(RP2) if name == "rp2" else build(name).complex
        e = build(name).natural_coords if natural else ss.generic_embedding(c, 1)
        expected = q_numbers(c, e)
        h = st._cohen_macaulay_h(c, e)  # its facet minors are ranked mod p too
        assert (h is not None) == natural
        monkeypatch.setattr(st, "_cohen_macaulay_h", lambda c, e: h)
        eliminations = []
        real = linalg.modp_rank

        def modp_rank(rows, rr=None):
            eliminations.append(rows)
            return real(rows, rr)
        monkeypatch.setattr(linalg, "modp_rank", modp_rank)
        assert st.stress_numbers(c, e) == expected
        assert len(eliminations) == len(expected[0]) - 1  # degrees 1..floor(d/2)+1

    @settings(max_examples=60)
    @given(hs.sampled_from(["boundary-simplex-3", "cycle-5", "octahedron", "cross-4",
                            "K-2-4"]), hs.data())
    def test_matches_q_path(self, name, data):
        # coordinates in -2..2 make singular facet minors, degenerate
        # embeddings and every fallback common
        c = build(name).complex
        d = c.dim + 1
        coords = {v: tuple(Fraction(x) for x in data.draw(
            hs.lists(hs.integers(-2, 2), min_size=d, max_size=d), label=f"vertex {v}"))
            for v in c.vertices}
        e = Embedding(coords, d, "natural")
        expected = q_numbers(c, e)
        assert st.stress_numbers(c, e) == expected
        assert self.dims(c, e) == expected[0][1:]
