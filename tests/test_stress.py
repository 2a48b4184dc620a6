"""Tests for affine stress spaces, socle dimensions and cone lifts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import spherestress as ss
from spherestress import catalog, linalg
from spherestress import stress as st
from spherestress.stress import Embedding, basis_to_jsonable


def build(name):
    return ss.build(name)


def numbers(spaces):
    """The stress dimensions of ``spaces`` in degrees 0..floor(d/2)+1,
    and its socle vector."""
    half = (spaces.complex.dim + 1) // 2
    return spaces.dims(range(half + 2)), spaces.socle


class TestDimensionsEqualG:
    CASES = ["octahedron", "cross-4", "K-2-4", "K-2-5", "cyclejoin-3-4"]

    @pytest.mark.parametrize("name", CASES)
    def test_generic_two_seeds(self, name):
        c = build(name).complex
        d = c.dim + 1
        g = ss.g_vector(c)
        for seed in (1, 2):
            spaces = ss.StressSpaces(c, ss.generic_embedding(c, seed))
            for k in range(1, d // 2 + 1):
                assert spaces.dims([k]) == [g[k]], (name, seed, k)

    def test_simplex_boundary_is_stress_free(self):
        b3 = ss.boundary_simplex(3)
        e = ss.generic_embedding(b3, 5)
        assert ss.StressSpaces(b3, e).dims([1]) == [0]

    def test_natural_embeddings(self):
        oct_ = build("octahedron")
        assert ss.StressSpaces(oct_.complex, oct_.natural_coords).dims([1]) == [2]
        poly = build("polytope-1")
        assert ss.StressSpaces(poly.complex, poly.natural_coords).dims((1, 2, 3)) == [2, 3, 1]

    def test_certified_dims(self):
        c = build("K-2-4").complex
        assert ss.certified_stress_dims(c, 2, seed=3) == 2

    def test_certificate_failure_raises(self, degenerate_second_seed):
        # the octahedron's six vertices in a plane have a 3-dimensional
        # space of affine dependencies, against g_1 = 2
        with pytest.raises(ss.DegenerateEmbeddingError, match="dims 2 .* vs 3"):
            ss.stress.certified_stress_dims(build("octahedron").complex, 1, seed=1)


class TestBasisProperties:
    def test_every_basis_element_is_a_stress(self):
        for name in ("octahedron", "K-2-4", "K-2-5"):
            c = build(name).complex
            e = ss.generic_embedding(c, 4)
            for k in range(1, (c.dim + 1) // 2 + 1):
                for omega in ss.StressSpaces(c, e).basis(k):
                    assert not omega.is_zero()
                    assert ss.is_stress(c, e, omega)

    def test_deterministic_given_seed(self):
        c = build("K-2-5").complex
        e = ss.generic_embedding(c, 11)
        b1 = ss.StressSpaces(c, e).basis(2)
        b2 = ss.StressSpaces(c, e).basis(2)
        assert [p.terms for p in b1] == [p.terms for p in b2]

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
            ss.StressSpaces(c, ss.generic_embedding(c, 1)).basis(0)

    def test_theta_forms(self):
        poly = build("polytope-1")
        forms = ss.theta_forms(poly.natural_coords)
        assert len(forms) == 7
        assert forms[0] == {1: Fraction(1), 3: Fraction(-1)}
        assert forms[-1] == {v: Fraction(1) for v in poly.complex.vertices}

    def test_basis_export_format(self):
        c = build("octahedron").complex
        e = ss.generic_embedding(c, 1)
        doc = basis_to_jsonable(c, 1, ss.StressSpaces(c, e).basis(1))
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
        omega = ss.StressSpaces(c, e).basis(2)[0]
        assert ss.derivative(omega, ()).terms == omega.terms

    def test_derivative_of_stress_is_stress(self):
        c = build("K-2-5").complex
        e = ss.generic_embedding(c, 2)
        for omega in ss.StressSpaces(c, e).basis(3):
            for v in (1, 4, 9):
                d = ss.derivative(omega, (v,))
                assert ss.is_stress(c, e, d)

    def test_degree_underflow(self):
        c = build("octahedron").complex
        e = ss.generic_embedding(c, 1)
        omega = ss.StressSpaces(c, e).basis(1)[0]
        with pytest.raises(ValueError):
            ss.derivative(omega, (1, 2))

    def test_span_dim_convention_at_zero(self):
        oct_ = build("octahedron").complex
        e = ss.generic_embedding(oct_, 1)
        assert ss.StressSpaces(oct_, e).derivative_span_dim(0) == 1  # g_1 > 0
        b3 = ss.boundary_simplex(3)
        assert ss.StressSpaces(b3, ss.generic_embedding(b3, 1)).derivative_span_dim(0) == 0

    def test_span_reconstructs_below_the_middle(self):
        # a 6-sphere with missing faces of dim <= 3: the degree-2 space is
        # fully reconstructed by derivatives from degree 3
        c = ss.join(ss.boundary_simplex(2), ss.boundary_simplex(2),
                    ss.boundary_simplex(3))
        e = ss.generic_embedding(c, 9)
        g = ss.g_vector(c)
        assert g[2] == 3
        assert ss.StressSpaces(c, e).derivative_span_dim(2) == g[2]


class TestSocleAndLevel:
    def test_socle_values(self):
        for name, expected in (("octahedron", [0, 2]),
                               ("K-2-4", [0, 0, 2]),
                               ("K-2-5", [0, 0, 1, 1])):
            sphere = build(name)
            e = ss.generic_embedding(sphere.complex, 7)
            assert ss.StressSpaces(sphere.complex, e).socle == expected, name

    def test_socle_middle_degree_with_nonzero_missing_count(self):
        # suspension of a boundary 3-simplex: one missing 3-face, and at the
        # middle degree k = 1 the socle meets the count with equality here
        c = ss.suspension(ss.boundary_simplex(3))
        e = ss.generic_embedding(c, 3)
        soc = ss.StressSpaces(c, e).socle
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
        soc = ss.StressSpaces(c, e).socle
        counts = ss.missing_face_counts(c)
        assert counts[5] == 1
        assert soc[2] == 1
        assert soc[:2] == [0, 0]

    def test_socle_matches_missing_counts_below_middle(self):
        for name in ("octahedron", "cross-4", "K-2-4", "K-2-5", "cyclejoin-3-5"):
            c = build(name).complex
            d = c.dim + 1
            e = ss.generic_embedding(c, 5)
            soc = ss.StressSpaces(c, e).socle
            counts = ss.missing_face_counts(c)
            for k in range((d - 1) // 2):
                assert soc[k] == counts.get(d - k, 0), (name, k)
            k_mid = (d - 1) // 2
            assert soc[k_mid] >= counts.get(d - k_mid, 0), name

    def test_is_level(self):
        k24 = build("K-2-4")
        e = ss.generic_embedding(k24.complex, 3)
        assert ss.is_level(ss.StressSpaces(k24.complex, e).socle, 2).holds
        k25 = build("K-2-5")
        e25 = ss.generic_embedding(k25.complex, 3)
        verdict = ss.is_level(ss.StressSpaces(k25.complex, e25).socle, 3)
        assert not verdict.holds and verdict.failing_index == 2

    def test_is_level_trivial_cut(self):
        b4 = ss.boundary_simplex(4)
        assert ss.is_level(ss.StressSpaces(b4, ss.generic_embedding(b4, 1)).socle, 0).holds

    def test_is_level_range(self):
        c = build("octahedron").complex
        soc = ss.StressSpaces(c, ss.generic_embedding(c, 1)).socle  # degrees 0..1
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
    through a denominator divisible by 3, which refuses the embedding's
    conversion, or a rank that drops mod 3; every answer must still be
    the exact one."""

    @staticmethod
    def snapshot(c, e):
        top = (c.dim + 1) // 2 + 1
        spaces = ss.StressSpaces(c, e)
        dims, socle = spaces.dims(range(1, top + 1)), spaces.socle
        # a degree kept mod p is eliminated over Q here, the others reused
        bases = [[p.terms for p in spaces.basis(k)] for k in range(1, top + 1)]
        return dims, bases, socle

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
        converted = []   # one per conversion: did the embedding convert?
        lengths = []     # (kernel mod p, kernel over Q) of the same rows
        last = []        # the kernel mod p just taken, as (columns, length)
        real = {name: getattr(linalg, name)
                for name in ("to_modp", "modp_rank", "modp_kernel", "kernel_basis")}

        def to_modp(rows):
            out = real["to_modp"](rows)
            converted.append(out is not None)
            return out

        def modp_rank(rows):
            last.clear()  # any other elimination mod p breaks the pairing
            return real["modp_rank"](rows)

        def modp_kernel(rows, columns):
            kernel = real["modp_kernel"](rows, columns)
            last[:] = [(len(columns), len(kernel))]
            return kernel

        def kernel_basis(rows, columns):
            # the fallback of a rejected kernel mod p eliminates the same
            # rows over Q right after it
            kernel = real["kernel_basis"](rows, columns)
            if last and last[0][0] == len(columns):
                lengths.append((last[0][1], len(kernel)))
            last.clear()
            return kernel

        monkeypatch.setattr(linalg, "PRIME", 3)
        for spy in (to_modp, modp_rank, modp_kernel, kernel_basis):
            monkeypatch.setattr(linalg, spy.__name__, spy)
        assert [self.snapshot(c, e) for c, e in cases] == expected
        assert not all(converted)
        assert any(mod_p > exact for mod_p, exact in lengths)
        assert all(mod_p >= exact for mod_p, exact in lengths)


def q_numbers(c, e):
    """``numbers`` computed over Q alone: one exact stress basis per
    degree and the exact rank of each derivative span."""
    half = (c.dim + 1) // 2
    spaces = st.StressSpaces(c, e)
    dims = [1] + [len(spaces.basis(k)) for k in range(1, half + 2)]
    socle = [dims[k] - spaces.derivative_span_dim(k) for k in range(half + 1)]
    return dims, socle


def reduced(rows, p):
    """Rational rows reduced entrywise mod p, zero entries and empty rows
    dropped, in an order-free form."""
    out = []
    for row in rows:
        r = {c: x.numerator * pow(x.denominator, -1, p) % p for c, x in row.items()}
        out.append(sorted((c, x) for c, x in r.items() if x))
    return sorted(r for r in out if r)


def torus():
    """The 7-vertex triangulation of the torus."""
    return ss.from_facets([[i % 7 + 1, (i + j) % 7 + 1, (i + 3) % 7 + 1]
                           for i in range(7) for j in (1, 2)])


def stacked(name):
    """The catalog sphere ``name`` with its first facet subdivided by a
    new vertex: the facet becomes a missing face, and so a degree-1 socle
    under a nonzero degree-2 space."""
    c = build(name).complex
    facet = min(c.facets, key=sorted)
    w = max(c.vertices) + 1
    return ss.from_facets([sorted(f) for f in c.facets if f != facet]
                          + [sorted(facet - {v} | {w}) for v in facet])


def socle_bounds(spaces):
    """The two bounds on each socle degree k of ``spaces``:
    max(dims_k - dims_1 * dims_{k+1}, 0) below, and above, dims_k less the
    rank mod p of the derivatives of a degree-(k+1) kernel kept mod p
    (dims_k for a kernel over Q)."""
    half = (spaces.complex.dim + 1) // 2
    dims = spaces.dims(range(half + 2))
    bounds = []
    for k in range(half + 1):
        terms, over_q = spaces.stresses(k + 1)
        upper = dims[k] if over_q else \
            dims[k] - linalg.modp_rank(st._derivatives(terms, linalg.PRIME))
        bounds.append((max(dims[k] - dims[1] * dims[k + 1], 0), upper))
    return bounds


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


@pytest.fixture
def eliminators(monkeypatch):
    """The modulus of every ``SparseRREF`` built (None over Q), one
    entry per elimination, in order."""
    moduli = []

    class Recording(linalg.SparseRREF):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            moduli.append(self.modulus)
    monkeypatch.setattr(linalg, "SparseRREF", Recording)
    return moduli


class TestCohenMacaulayCertificate:
    """Dims and socles certified over GF(p) by the lower bound g_k on a
    GF(2)-sphere with an l.s.o.p. embedding; the exact Q path runs
    exactly where the certificate does not apply."""

    @staticmethod
    def dims(c, e):
        return ss.StressSpaces(c, e).dims(range(1, (c.dim + 1) // 2 + 2))

    @pytest.mark.parametrize("name", ["octahedron", "cross-4", "K-2-4", "cyclejoin-3-4"])
    def test_certified_spheres_skip_q(self, name, q_path):
        c = build(name).complex
        e = ss.generic_embedding(c, 1)
        expected = q_numbers(c, e)
        q_path.update(kernel_basis=0, rank_of=0)
        assert numbers(st.StressSpaces(c, e)) == expected
        assert self.dims(c, e) == expected[0][1:]
        assert q_path == {"kernel_basis": 0, "rank_of": 0}

    @pytest.mark.parametrize("name, k, dim", [("octahedron", 2, 0), ("K-2-5", 3, 1)])
    def test_exported_basis_is_one_elimination_over_q(self, name, k, dim, eliminators):
        # an exported basis is eliminated over Q alone, whether the space
        # is zero or not: no kernel mod p is taken first
        c = build(name).complex
        e = ss.generic_embedding(c, 1)
        eliminators.clear()
        assert len(ss.StressSpaces(c, e).basis(k)) == dim
        assert eliminators == [None]

    def test_nonzero_socle_under_nonzero_space_is_settled_mod_p(self, q_path):
        c = build("K-2-5").complex
        e = ss.generic_embedding(c, 7)
        expected = q_numbers(c, e)
        q_path.update(kernel_basis=0, rank_of=0)
        assert numbers(st.StressSpaces(c, e)) == expected
        assert expected[1] == [0, 0, 1, 1]
        # the two bounds on the degree-2 socle meet: nothing over Q
        assert q_path == {"kernel_basis": 0, "rank_of": 0}

    def test_basis_after_the_socle_is_eliminated_once(self, q_path):
        # the socle of K-2-5 keeps degree 3 mod p; the exported degree-3
        # basis replaces it by one elimination over Q and reads it back
        c = build("K-2-5").complex
        e = ss.generic_embedding(c, 7)
        spaces = st.StressSpaces(c, e)
        assert spaces.socle == [0, 0, 1, 1]
        assert q_path["kernel_basis"] == 0
        basis = spaces.basis(3)
        assert q_path["kernel_basis"] == 1
        assert spaces.basis(3) == basis
        assert q_path["kernel_basis"] == 1
        assert [p.terms for p in basis] == [p.terms for p in st.StressSpaces(c, e).basis(3)]

    def test_support_counterexample_takes_no_elimination_over_q(self, q_path, monkeypatch):
        # the support counterexample reads its dimension from the
        # certificate (one l.s.o.p. test) and ranks the derivatives of
        # its explicit stress over Q: no elimination over Q
        bounds = []
        real = st._cohen_macaulay_h

        def cohen_macaulay_h(*args):
            bounds.append(args)
            return real(*args)
        monkeypatch.setattr(st, "_cohen_macaulay_h", cohen_macaulay_h)
        assert ss.verify_counterexample_support(1).reproduced
        assert q_path == {"kernel_basis": 0, "rank_of": 1}
        assert len(bounds) == 1

    def test_socle_fallback_takes_no_second_kernel_mod_p(self, monkeypatch):
        # the stacked K-2-4 keeps its degree-2 kernel mod p, but the two
        # bounds on its degree-1 socle do not meet: that socle is ranked
        # over Q from the degree-2 rows, with no second kernel mod p
        c = stacked("K-2-4")
        e = ss.generic_embedding(c, 1)
        kernels = []
        real = linalg.modp_kernel

        def modp_kernel(rows, columns):
            kernels.append(len(columns))
            return real(rows, columns)
        monkeypatch.setattr(linalg, "modp_kernel", modp_kernel)
        dims, socle = numbers(st.StressSpaces(c, e))
        assert socle == [0, 1, 2]
        # one per degree 1..3
        assert kernels == [len(ss.face_monomials(c, k)) for k in range(1, len(dims))]

    def check_falls_back(self, c, e, q_path):
        expected = q_numbers(c, e)
        dims = expected[0][1:]
        nonzero = sum(1 for x in dims if x)
        q_path.update(kernel_basis=0, rank_of=0)
        assert numbers(st.StressSpaces(c, e)) == expected
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

    # rp2 is a non-sphere, so the lower bound is 0; K-2-4's coordinates
    # have denominators divisible by 3, so its embedding is refused
    # before any elimination mod 3; the natural cross-4 has unit facet
    # minors, so the lower bound g_k holds, but every kernel mod 2 is
    # longer than it, and its degree 3 is settled by its mirror degree 2
    @pytest.mark.parametrize("name, prime, natural", [
        ("rp2", None, False), ("K-2-4", 3, False), ("cross-4", 2, True)])
    def test_one_modp_elimination_per_degree(self, name, prime, natural, monkeypatch,
                                             eliminators):
        # a kernel mod p that the certificate rejects is not eliminated
        # mod p again on the way to its kernel over Q
        if prime is not None:
            monkeypatch.setattr(linalg, "PRIME", prime)
        c = ss.from_facets(RP2) if name == "rp2" else build(name).complex
        e = build(name).natural_coords if natural else ss.generic_embedding(c, 1)
        expected = q_numbers(c, e)
        spaces = st.StressSpaces(c, e)  # its facet minors are ranked mod p too
        assert (spaces.forms_p is None) == (name == "K-2-4")
        assert (spaces.h is not None) == natural
        eliminators.clear()
        assert numbers(spaces) == expected
        # one per degree 1..floor(d/2)+1 that builds its rows
        modp = [m for m in eliminators if m is not None]
        assert len(modp) == {"rp2": 2, "K-2-4": 0, "cross-4": 2}[name]

    @settings(max_examples=100)
    @given(hs.sampled_from(["boundary-simplex-3", "cycle-5", "octahedron", "cross-4",
                            "K-2-4"]),
           hs.sampled_from([2, 3, linalg.PRIME, 2 ** 61 - 1]), hs.data())
    def test_matches_q_path(self, name, prime, data):
        # coordinates in -2..2 make singular facet minors, degenerate
        # embeddings and every fallback common; their denominators, from a
        # drawn subset of 1..3, make refused conversions common mod 2 and 3
        c = build(name).complex
        d = c.dim + 1
        dens = data.draw(hs.sampled_from([(1,), (1, 2), (1, 3), (1, 2, 3)]), label="dens")
        coords = {v: tuple(data.draw(hs.lists(
            hs.builds(Fraction, hs.integers(-2, 2), hs.sampled_from(dens)),
            min_size=d, max_size=d), label=f"vertex {v}")) for v in c.vertices}
        e = Embedding(coords, d, "natural")
        expected = q_numbers(c, e)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "PRIME", prime)
            spaces = st.StressSpaces(c, e)
            forms_p = spaces.forms_p
            assert (forms_p is None) == any(
                x.denominator % prime == 0 for cs in coords.values() for x in cs)
            # the certificate rows, built from the converted coordinates,
            # are the entrywise reduction of the rows over Q
            if forms_p is not None:
                for k in range(1, d // 2 + 2):
                    cols = ss.face_monomials(c, k)
                    rows_p = st._operator_rows(forms_p, cols, prime)
                    assert all(0 < x < prime for r in rows_p for x in r.values())
                    assert sorted(sorted(r.items()) for r in rows_p) == \
                        reduced(st._operator_rows(ss.theta_forms(e), cols), prime)
            assert numbers(spaces) == expected
            assert self.dims(c, e) == expected[0][1:]

    @staticmethod
    def check_minors(c, e, prime, monkeypatch):
        """The prefix-trie verdict of ``_cohen_macaulay_h`` against each
        facet's coordinate minor ranked on its own mod ``prime``."""
        monkeypatch.setattr(linalg, "PRIME", prime)
        spaces = st.StressSpaces(c, e)
        forms_p, d = spaces.forms_p, c.dim + 1
        assert ss.is_z2_homology_sphere(c) and c.is_pure()
        singular = forms_p is None or any(
            linalg.modp_rank([{j: form[v] for j, form in enumerate(forms_p[:d]) if v in form}
                              for v in f]) < d for f in c.facets)
        assert (spaces.h is None) == singular
        return singular

    @settings(max_examples=200)
    @given(hs.sampled_from(["boundary-simplex-3", "cycle-5", "octahedron", "cross-4",
                            "K-2-4"]),
           hs.sampled_from([2, 3, linalg.PRIME, 2 ** 61 - 1]), hs.data())
    def test_facet_prefixes_rank_every_minor(self, name, prime, data):
        # drawn as in test_matches_q_path, so singular minors are common
        c = build(name).complex
        d = c.dim + 1
        dens = data.draw(hs.sampled_from([(1,), (1, 2), (1, 3), (1, 2, 3)]), label="dens")
        coords = {v: tuple(data.draw(hs.lists(
            hs.builds(Fraction, hs.integers(-2, 2), hs.sampled_from(dens)),
            min_size=d, max_size=d), label=f"vertex {v}")) for v in c.vertices}
        with pytest.MonkeyPatch.context() as mp:
            self.check_minors(c, Embedding(coords, d, "natural"), prime, mp)

    def test_singular_facet_minor_on_the_last_level(self, monkeypatch):
        # the singular octahedron of test_singular_facet_minor: only the
        # last vertex of the first facet makes its minor singular
        c = build("octahedron").complex
        coords = dict(ss.generic_embedding(c, 1).coords)
        a, b, v = sorted(min(c.facets, key=sorted))
        coords[v] = tuple(x + y for x, y in zip(coords[a], coords[b]))
        e = Embedding(coords, 3, "natural")
        assert self.check_minors(c, e, linalg.PRIME, monkeypatch)


# every catalog sphere the socle sweep ranks over Q, under seeds 1 and 7
# and under natural coordinates (seed None) where it has them; generic
# cross-6 and K-3-7 take seconds each over Q
SOCLE_SWEEP = [pytest.param(name, seed, marks=pytest.mark.slow if seed and name in
                            ("cross-6", "K-3-7") else ())
               for name in (*catalog.RESIDUAL, "K-3-6", "K-3-7", "polytope-1")
               for seed in (1, 7, None)
               if seed is not None or build(name).natural_coords is not None]


class TestTwoSidedSocle:
    """A socle degree under a nonzero space kept mod p lies between
    dims_k - dims_1 * dims_{k+1} and dims_k less the rank mod p of the
    derivatives; where they meet, nothing is computed over Q.  A degree
    above the middle whose mirror degree d + 1 - k is zero or has the
    dimension g_{d+1-k} is zero on a sphere, with no rows built."""

    @pytest.mark.parametrize("name, seed", SOCLE_SWEEP)
    def test_catalog_socle_is_settled_mod_p_and_matches_q(self, name, seed, q_path):
        sphere = build(name)
        c = sphere.complex
        e = sphere.natural_coords if seed is None else ss.generic_embedding(c, seed)
        spaces = st.StressSpaces(c, e)
        bounds = socle_bounds(spaces)
        socle = spaces.socle
        assert q_path == {"kernel_basis": 0, "rank_of": 0}
        dims = spaces.dims(range(len(socle)))
        fresh = st.StressSpaces(c, e)
        for k, (lower, upper) in enumerate(bounds):
            assert lower <= socle[k] <= upper
            assert socle[k] == dims[k] - fresh.derivative_span_dim(k)

    def test_level_counterexample_socle_takes_no_exact_step(self, q_path, monkeypatch):
        # K-3-7 (d = 8): degrees 1..4 are kernels mod p, degree 5 is
        # settled by its mirror degree 4, and the bounds meet in every degree
        c = build("K-3-7").complex
        kernels = []
        real = linalg.modp_kernel

        def modp_kernel(rows, columns):
            kernels.append(len(columns))
            return real(rows, columns)
        monkeypatch.setattr(linalg, "modp_kernel", modp_kernel)
        assert st.StressSpaces(c, ss.generic_embedding(c, 1)).socle == [0, 0, 0, 1, 1]
        assert q_path == {"kernel_basis": 0, "rank_of": 0}
        assert kernels == [len(ss.face_monomials(c, k)) for k in range(1, 5)]

    def test_mirror_degree_builds_no_rows(self, monkeypatch):
        kernels = []
        real = linalg.modp_kernel

        def modp_kernel(rows, columns):
            kernels.append(len(columns))
            return real(rows, columns)
        monkeypatch.setattr(linalg, "modp_kernel", modp_kernel)

        def stresses(c, e, k):
            kernels.clear()
            return st.StressSpaces(c, e).stresses(k)

        # cross-6 (d = 6): degree 4 reads its mirror degree 3 alone, and
        # is empty over Q too
        c = build("cross-6").complex
        assert stresses(c, ss.generic_embedding(c, 1), 4) == ([], True)
        assert kernels == [len(ss.face_monomials(c, 3))]
        assert stresses(c, build("cross-6").natural_coords, 4) == ([], True)
        assert st.StressSpaces(c, build("cross-6").natural_coords).basis(4) == ()
        # above degree d there is no mirror degree to read
        c = build("cross-4").complex
        assert stresses(c, ss.generic_embedding(c, 1), 5) == ([], True)
        assert kernels == []
        # cross-5 (d = 5): degree 3 is its own mirror
        c = build("cross-5").complex
        assert stresses(c, ss.generic_embedding(c, 1), 3) == ([], True)
        assert kernels == [len(ss.face_monomials(c, 3))]
        # a non-sphere has no lower bound h, so no mirror rule
        c = ss.from_facets(RP2)
        assert stresses(c, ss.generic_embedding(c, 1), 3)[0] == []
        assert kernels == [len(ss.face_monomials(c, 3))]

    def test_bounds_apart_fall_back_to_q(self, q_path):
        # the stacked K-2-4's degree-1 socle: its missing 4-face gives 1,
        # the lower bound 0 and the rank mod p 1, so it is ranked over Q
        c = stacked("K-2-4")
        e = ss.generic_embedding(c, 1)
        expected = q_numbers(c, e)
        q_path.update(kernel_basis=0, rank_of=0)
        spaces = st.StressSpaces(c, e)
        assert socle_bounds(spaces)[1] == (0, 1)
        assert numbers(spaces) == expected
        assert expected[1] == [0, 1, 2]
        # one exact degree-2 basis, one exact span
        assert q_path == {"kernel_basis": 1, "rank_of": 1}
