"""Tests for the simplicial complex value type and its operations."""

from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import spherestress as ss
from spherestress import complex_core as cc
from spherestress.complex_core import EMPTY, _make, _maximalize, z2_reduced_betti
from spherestress.enumeration import vertex_link_f_vectors
from spherestress.linalg import gf2_rank


def facet_sets(c):
    return {tuple(sorted(f)) for f in c.facets}


# Random facet lists over at most 8 vertices.
facet_lists = hs.lists(hs.sets(hs.integers(1, 8), min_size=1, max_size=5),
                       min_size=1, max_size=8)


def scan_is_face(c, s):
    return any(frozenset(s) <= f for f in c.facets)


def brute_missing_faces(c):
    """Every vertex subset that is not a face but all of whose proper
    subsets are, sorted by (dimension, vertex labels)."""
    out = []
    for k in range(2, len(c.vertices) + 1):
        for s in combinations(c.vertices, k):
            if not scan_is_face(c, s) and all(
                    scan_is_face(c, t) for t in combinations(s, k - 1)):
                out.append(list(s))
    return out


def reference_faces_by_dim(c):
    """Every subset of every facet as a frozenset, grouped by dimension."""
    seen = set()
    for f in c.facets:
        fl = sorted(f)
        for k in range(len(fl) + 1):
            seen.update(frozenset(t) for t in combinations(fl, k))
    out = {}
    for s in seen:
        out.setdefault(len(s) - 1, set()).add(s)
    return {d: frozenset(fs) for d, fs in sorted(out.items())}


class TestConstruction:
    def test_triangle_boundary(self):
        c = ss.from_facets([[1, 2], [2, 3], [1, 3]])
        assert c.dim == 1
        assert c.vertices == (1, 2, 3)
        assert c == ss.boundary_simplex(2)

    def test_maximality_absorbs(self):
        c = ss.from_facets([[1, 2, 3], [1, 2], [3]])
        assert facet_sets(c) == {(1, 2, 3)}

    def test_octahedron_equals_triple_join(self):
        facets = [[1, 3, 5], [1, 3, 6], [1, 4, 5], [1, 4, 6],
                  [2, 3, 5], [2, 3, 6], [2, 4, 5], [2, 4, 6]]
        oct_ = ss.from_facets(facets)
        assert oct_.dim == 2 and len(oct_.vertices) == 6
        joined = ss.join(ss.boundary_simplex(1), ss.boundary_simplex(1),
                         ss.boundary_simplex(1))
        assert oct_ == joined

    def test_errors(self):
        with pytest.raises(ValueError):
            ss.from_facets([])
        with pytest.raises(ValueError):
            ss.from_facets([[1, 2], []])
        with pytest.raises(ValueError):
            ss.from_facets([[1, 1, 2]])

    def test_boundary_simplex_small(self):
        two_points = ss.boundary_simplex(1)
        assert two_points.dim == 0 and len(two_points.facets) == 2
        assert ss.boundary_simplex(2) == ss.cycle(3)
        f = ss.f_vector(ss.boundary_simplex(4))
        assert f == [1, 5, 10, 10, 5]
        with pytest.raises(ValueError):
            ss.boundary_simplex(0)

    def test_cycle(self):
        c4 = ss.cycle(4)
        assert {tuple(sorted(m.vertex_set)) for m in ss.missing_faces(c4)} \
            == {(1, 3), (2, 4)}
        c6 = ss.cycle(6)
        assert ss.f_vector(c6) == [1, 6, 6]
        assert ss.g_vector(c6)[1] == 3  # f0 - 3 for a 1-sphere
        with pytest.raises(ValueError):
            ss.cycle(2)


class TestJoinsAndLocalComplexes:
    def test_join_of_point_pairs_is_square(self):
        c = ss.join(ss.boundary_simplex(1), ss.boundary_simplex(1))
        assert ss.are_isomorphic(c, ss.cycle(4))

    def test_join_with_empty_complex(self):
        c4 = ss.cycle(4)
        assert ss.join(c4, EMPTY) == c4
        assert ss.join(EMPTY, c4) == c4

    def test_K24_has_8_vertices(self):
        k = ss.join(ss.boundary_simplex(2), ss.boundary_simplex(2),
                    ss.boundary_simplex(1))
        assert len(k.vertices) == 8
        assert k.dim == 4

    def test_suspension_of_square_is_octahedron(self):
        assert ss.are_isomorphic(ss.suspension(ss.cycle(4)),
                                 ss.build("octahedron").complex)

    def test_vertex_link_of_octahedron_is_square(self):
        oct_ = ss.build("octahedron").complex
        for v in oct_.vertices:
            assert ss.are_isomorphic(ss.link(oct_, {v}), ss.cycle(4))

    def test_star_of_apex_is_whole_cone(self):
        c = ss.cone(ss.cycle(5), apex=9)
        assert ss.star(c, {9}) == c

    def test_link_of_simplex_edge(self):
        b4 = ss.boundary_simplex(4)
        lk = ss.link(b4, {1, 2})
        assert ss.are_isomorphic(lk, ss.boundary_simplex(2))

    def test_link_of_facet_is_empty_complex(self):
        assert ss.link(ss.cycle(4), {1, 2}) is EMPTY

    def test_link_commutes_with_join(self):
        a, b = ss.cycle(4), ss.boundary_simplex(2)
        j = ss.join(a, b)  # disjoint labels after automatic shift: b -> 5,6,7
        tau = {1}
        lhs = ss.link(j, tau)
        rhs = ss.join(ss.link(a, tau), ss.from_facets([[5, 6], [6, 7], [5, 7]]))
        assert lhs == rhs

    def test_link_errors_on_nonface(self):
        with pytest.raises(ValueError):
            ss.link(ss.cycle(4), {1, 3})

    def test_antistar(self):
        c4 = ss.cycle(4)
        anti = ss.antistar(c4, 1)
        assert facet_sets(anti) == {(2, 3), (3, 4)}

    def test_skeleton_and_induced(self):
        k4 = ss.skeleton(ss.boundary_simplex(3), 1)
        assert len(k4.faces(1)) == 6 and k4.dim == 1
        oct_ = ss.build("octahedron").complex
        pair = ss.induced(oct_, {1, 2})  # antipodal labels (2i-1, 2i)
        assert pair.dim == 0 and len(pair.facets) == 2
        path = ss.induced(ss.cycle(6), {1, 2, 3})
        assert facet_sets(path) == {(1, 2), (2, 3)}
        with pytest.raises(ValueError):
            ss.induced(oct_, set())
        with pytest.raises(ValueError):
            ss.skeleton(oct_, 5)


class TestMissingFaces:
    def test_square_diagonals(self):
        mf = ss.missing_faces(ss.cycle(4))
        assert [sorted(m.vertex_set) for m in mf] == [[1, 3], [2, 4]]
        assert all(m.dim == 1 for m in mf)

    def test_K24_missing_faces(self):
        k = ss.build("K-2-4").complex
        mf = ss.missing_faces(k)
        dims = sorted(m.dim for m in mf)
        assert dims == [1, 2, 2]
        assert {tuple(sorted(m.vertex_set)) for m in mf} \
            == {(1, 2, 3), (4, 5, 6), (7, 8)}

    def test_join_missing_faces_are_union(self):
        a, b = ss.cycle(5), ss.boundary_simplex(2)
        j = ss.join(a, b)  # b relabeled to 6,7,8
        got = {tuple(sorted(m.vertex_set)) for m in ss.missing_faces(j)}
        expect = {tuple(sorted(m.vertex_set)) for m in ss.missing_faces(a)} \
            | {(6, 7, 8)}
        assert got == expect

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(facet_lists)
    def test_matches_brute_force(self, facets):
        c = ss.from_facets(facets)
        assert [sorted(m.vertex_set) for m in ss.missing_faces(c)] \
            == brute_missing_faces(c)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(facet_lists)
    def test_is_face_matches_facet_scan(self, facets):
        c = ss.from_facets(facets)
        for k in range(6):
            for s in combinations(range(1, 10), k):
                assert c.is_face(s) == scan_is_face(c, s)

    def test_returned_list_is_a_copy(self):
        c = ss.build("K-2-4").complex
        first = ss.missing_faces(c)
        expect = list(first)
        first.clear()
        assert ss.missing_faces(c) == expect

    def test_empty_complex_has_none(self):
        assert ss.missing_faces(EMPTY) == []

    def test_class_membership(self):
        oct_ = ss.build("octahedron").complex
        assert ss.in_class_S(oct_, 1)
        assert ss.is_flag(oct_)
        assert not ss.is_flag(ss.build("K-2-4").complex)
        assert ss.max_missing_dim(ss.boundary_simplex(4)) == 4


class TestContraction:
    def test_square_contracts_to_triangle(self):
        c = ss.contract_edge(ss.cycle(4), 1, 2)
        assert ss.are_isomorphic(c, ss.cycle(3))
        assert len(c.vertices) == 3

    def test_simplex_boundary_edge_is_refused_with_witness(self):
        b3 = ss.boundary_simplex(3)
        with pytest.raises(ss.InadmissibleContraction) as exc:
            ss.contract_edge(b3, 1, 2)
        assert sorted(exc.value.witness) == [1, 2, 3, 4]

    def test_octahedron_contraction(self):
        oct_ = ss.build("octahedron").complex
        c = ss.contract_edge(oct_, 1, 3)  # adjacent vertices
        assert ss.f_vector(c) == [1, 5, 9, 6]
        assert ss.is_z2_homology_sphere(c)
        assert len(c.vertices) == len(oct_.vertices) - 1

    def test_contraction_has_its_own_missing_faces(self):
        c = ss.cycle(5)
        assert len(ss.missing_faces(c)) == 5
        square = ss.contract_edge(c, 1, 2)  # 1 and 2 become vertex 6
        assert [sorted(m.vertex_set) for m in ss.missing_faces(square)] \
            == [[3, 5], [4, 6]]
        assert len(ss.missing_faces(c)) == 5

    def test_link_condition_matches_missing_face_criterion(self):
        # lk(uv) = lk(u) cap lk(v) exactly when uv lies in no missing face
        for c in (ss.cycle(4), ss.boundary_simplex(3),
                  ss.build("octahedron").complex, ss.build("K-2-4").complex):
            missing = [m.vertex_set for m in ss.missing_faces(c)]
            for e in c.faces(1):
                u, v = sorted(e)
                lk_e = ss.link(c, e).faces_by_dim
                lk_u = ss.link(c, {u})
                lk_v = ss.link(c, {v})
                common = {
                    d: frozenset(f for f in fs if lk_v.is_face(f))
                    for d, fs in lk_u.faces_by_dim.items()
                    if any(lk_v.is_face(f) for f in fs)}
                in_missing = any(e <= m for m in missing)
                assert (lk_e != common) == in_missing


def reference_betti(c):
    """Reduced GF(2) Betti numbers from the full boundary matrices, one
    ``gf2_rank`` per dimension, indexed from dimension -1."""
    index = {d: {f: i for i, f in enumerate(fs)} for d, fs in c.faces_by_dim.items()}
    ranks = {d: gf2_rank(sum(1 << index[d - 1][f - {v}] for v in f) for f in index[d])
             for d in range(c.dim + 1)}
    return [len(index[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
            for d in range(-1, c.dim + 1)]


def reference_z2_sphere(c):
    """The link-by-link definition: every face link, the empty face's
    included, is built as a complex and must have the reduced GF(2)
    homology of a sphere of dimension dim - |face|."""
    for faces in c.faces_by_dim.values():
        for f in faces:
            betti = z2_reduced_betti(ss.link(c, f))
            k = c.dim - len(f)
            if betti != [1 if i == k + 1 else 0 for i in range(len(betti))]:
                return False
    return True


RP2 = [[1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 6], [1, 5, 6],
       [2, 3, 5], [2, 3, 6], [2, 4, 6], [3, 4, 5], [4, 5, 6]]
TORUS = [[(i + a) % 7 + 1 for a in t] for i in range(7) for t in ((0, 1, 3), (0, 2, 3))]


def octahedra_at_a_vertex():
    """Two octahedra sharing vertex 1 and nothing else."""
    octa = [sorted(f) for f in ss.build("octahedron").complex.facets]
    return octa + [[v if v == 1 else v + 10 for v in f] for f in octa]


# Pure complexes that are not GF(2) homology spheres.
NOT_SPHERES = {
    "rp2": RP2,
    "torus": TORUS,
    "disk": [[1, 2, 3]],
    "octahedron-minus-a-facet": sorted(
        sorted(f) for f in ss.build("octahedron").complex.facets)[1:],
    "octahedra-glued-at-a-vertex": octahedra_at_a_vertex(),
    "edge-in-three-triangles": [[1, 2, 3], [1, 2, 4], [1, 2, 5]],
    "square-join-three-points": [[a, b, p] for a, b in ((1, 2), (2, 3), (3, 4), (1, 4))
                                 for p in (5, 6, 7)],
    "three-points": [[1], [2], [3]],
}

SMALL_SPHERES = {
    "two-points": ss.from_facets([[1], [2]]),
    "cycle-5": ss.cycle(5),
    "boundary-simplex-3": ss.boundary_simplex(3),
    "boundary-simplex-4": ss.boundary_simplex(4),
    "suspended-cycle-5": ss.suspension(ss.cycle(5)),
    "cycle-3-join-cycle-3": ss.join(ss.cycle(3), ss.cycle(3)),
    "octahedron": ss.build("octahedron").complex,
    "cross-4": ss.build("cross-4").complex,
}


@hs.composite
def pure_complexes(draw):
    """Pure complexes of dimension 1-3 on at most 8 vertices: random
    facets, or a relabeled small sphere, in half of the draws with up
    to two facets dropped and up to two added."""
    if not draw(hs.booleans()):
        k = draw(hs.integers(2, 4))
        return ss.from_facets(draw(hs.lists(hs.sets(hs.integers(1, 8), min_size=k, max_size=k),
                                            min_size=1, max_size=12)))
    base = draw(hs.sampled_from([c for c in SMALL_SPHERES.values() if c.dim >= 1]))
    label = draw(hs.permutations(range(1, 9)))
    facets = sorted(sorted(label[v - 1] for v in f) for f in base.facets)
    if draw(hs.booleans()):
        drop = draw(hs.sets(hs.integers(0, len(facets) - 1), max_size=2))
        facets = [f for i, f in enumerate(facets) if i not in drop]
        k = base.dim + 1
        facets += draw(hs.lists(hs.sets(hs.integers(1, 8), min_size=k, max_size=k),
                                min_size=0 if facets else 1, max_size=2))
    return ss.from_facets(facets)


class TestHomology:
    def test_spheres(self):
        assert ss.is_z2_homology_sphere(ss.build("octahedron").complex)
        assert ss.is_z2_homology_sphere(ss.build("K-2-5").complex)
        assert ss.is_z2_homology_sphere(ss.cycle(6))
        assert ss.is_z2_homology_sphere(ss.build("cross-4").complex)

    def test_non_spheres(self):
        disk = ss.from_facets([[1, 2, 3]])
        assert not ss.is_z2_homology_sphere(disk)
        # minimal 6-vertex triangulation of the real projective plane:
        # mod-2 homology differs from a 2-sphere in degree 1
        rp2 = ss.from_facets([
            [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 6], [1, 5, 6],
            [2, 3, 5], [2, 3, 6], [2, 4, 6], [3, 4, 5], [4, 5, 6],
        ])
        from spherestress.complex_core import z2_reduced_betti
        assert z2_reduced_betti(rp2) == [0, 0, 1, 1]
        assert not ss.is_z2_homology_sphere(rp2)

    def test_non_pure_rejected(self):
        c = ss.from_facets([[1, 2, 3], [3, 4]])
        with pytest.raises(ValueError):
            ss.is_z2_homology_sphere(c)

    def test_empty_complex_betti(self):
        from spherestress.complex_core import z2_reduced_betti
        assert z2_reduced_betti(EMPTY) == [1]

    @pytest.mark.parametrize("name", ["octahedron", "disk"])
    def test_verdict_computed_once(self, name, monkeypatch):
        c = (ss.from_facets([[1, 2, 3]]) if name == "disk"
             else ss.build(name).complex)
        calls = []
        for fn in ("_numbered_faces", "gf2_pivots"):
            real = getattr(cc, fn)
            monkeypatch.setattr(cc, fn, lambda *a, fn=fn, real=real: calls.append(fn) or real(*a))
        first = ss.is_z2_homology_sphere(c)
        assert "_numbered_faces" in calls
        # the disk's edges lie in one triangle each: settled by counting
        assert ("gf2_pivots" in calls) == (name != "disk")
        calls.clear()
        assert ss.is_z2_homology_sphere(c) == first == (name != "disk")
        assert calls == []

    @pytest.mark.parametrize("name", NOT_SPHERES)
    def test_fixed_non_spheres(self, name):
        c = ss.from_facets(NOT_SPHERES[name])
        assert c.is_pure()
        assert not reference_z2_sphere(c)
        assert not ss.is_z2_homology_sphere(c)

    @pytest.mark.parametrize("name", SMALL_SPHERES)
    def test_fixed_spheres(self, name):
        c = SMALL_SPHERES[name]
        assert reference_z2_sphere(c)
        assert ss.is_z2_homology_sphere(c)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(pure_complexes())
    def test_matches_link_by_link_reference(self, c):
        assert ss.is_z2_homology_sphere(c) == reference_z2_sphere(c)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(facet_lists)
    def test_betti_matches_full_boundary_ranks(self, facets):
        c = ss.from_facets(facets)
        assert z2_reduced_betti(c) == reference_betti(c)


class TestFaceEnumeration:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(facet_lists.map(ss.from_facets))
    @example(EMPTY)
    def test_faces_match_per_facet_reference(self, c):
        got = c.faces_by_dim
        assert got == reference_faces_by_dim(c)
        assert list(got) == list(range(-1, c.dim + 1))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(pure_complexes())
    def test_vertex_link_f_vectors_match_built_links(self, c):
        assert vertex_link_f_vectors(c) == {
            v: ss.f_vector(ss.link(c, {v})) for v in c.vertices}

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(hs.lists(hs.frozensets(hs.integers(1, 6), max_size=5), max_size=12))
    def test_maximalize_matches_definition(self, sets):
        assert _maximalize(sets) == {s for s in sets if not any(s < t for t in sets)}


class TestIsomorphism:
    def test_relabeled_cycles(self):
        c = ss.from_facets([[10, 20], [20, 31], [31, 42], [42, 10]])
        assert ss.are_isomorphic(c, ss.cycle(4))
        assert not ss.are_isomorphic(ss.cycle(5), ss.cycle(4))

    def test_path_vs_cycle(self):
        path = ss.from_facets([[1, 2], [2, 3], [3, 4]])
        assert not ss.are_isomorphic(path, ss.cycle(4))


class TestJson:
    def test_roundtrip_with_coordinates(self):
        sphere = ss.build("octahedron")
        text = ss.complex_to_json(sphere.complex, name="octahedron",
                                  coordinates=sphere.natural_coords.coords)
        c, name, coords = ss.complex_from_json(text)
        assert c == sphere.complex
        assert name == "octahedron"
        assert coords == {v: tuple(q for q in cs)
                          for v, cs in sphere.natural_coords.coords.items()}

    def test_rational_strings(self):
        text = '{"name": "seg", "facets": [[1, 2]], ' \
               '"coordinates": {"1": ["1/2", "0"], "2": ["-3/4", "1"]}}'
        c, name, coords = ss.complex_from_json(text)
        from fractions import Fraction
        assert coords == {1: (Fraction(1, 2), 0), 2: (Fraction(-3, 4), 1)}

    def test_malformed(self):
        with pytest.raises(ValueError):
            ss.complex_from_json("{nope")
        with pytest.raises(ValueError):
            ss.complex_from_json('{"name": "x"}')


def test_internal_make_empty():
    assert _make([frozenset()]) is EMPTY
