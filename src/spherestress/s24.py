"""Reduction machinery for 4-spheres without missing faces of dimension > 2.

Covers admissible edge contractions, the two reduced-ness conditions,
detection of induced subcomplexes isomorphic to the join of two empty
triangles (written Gamma below), splitting along such a Gamma, and the
exact-rational verifier of the main lower bound g_2 >= (2/5) f_0 - 6/5.

A trial contraction is decided from the parent's missing faces and the
faces near the edge; the contracted complex is built only for the edge
that is actually contracted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import complex_core as cc
from .complex_core import SimplicialComplex, missing_faces
from .enumeration import g_vector


class NotInS24(ValueError):
    pass


def in_s24(c: SimplicialComplex) -> bool:
    return c.dim == 4 and cc.max_missing_dim(c) <= 2


def _require_s24(c: SimplicialComplex):
    if c.dim != 4:
        raise NotInS24(f"expected a 4-dimensional complex, got dimension {c.dim}")
    j = cc.max_missing_dim(c)
    if j > 2:
        raise NotInS24(f"missing faces of dimension {j} > 2")


def _require_s24_sphere(c: SimplicialComplex):
    """The class gate, then the GF(2) homology sphere test on ``c``."""
    _require_s24(c)
    if not c.is_pure() or not cc.is_z2_homology_sphere(c):
        raise ValueError("input is not a homology 4-sphere over GF(2)")


def admissible_contractions(c: SimplicialComplex) -> list[frozenset[int]]:
    """Edges whose contraction is defined (they lie in no missing face)
    and keeps every missing face of dimension at most 2.

    No trial complex is built, and no missing-face list either.  The
    missing faces that the contraction keeps from ``c`` have dimension
    at most 2 (``c`` is checked to be in the class), and each new one
    is T ∪ {w} for the new vertex w, of dimension |T|.  So an edge is
    refused exactly when a new missing face has |T| >= 3.  Only the
    first such T from ``cc._new_missing_faces`` is asked for, but the
    walk of lk(w) that finds the candidates runs to its end for every
    edge tested."""
    _require_s24(c)
    out = []
    for u, v in sorted(c._tuples(1)):
        if any(u in m and v in m for m in c._missing_faces):
            continue
        e = frozenset((u, v))
        if next(cc._new_missing_faces(c, e, 3), None) is None:
            out.append(e)
    return out


def contraction_identity_check(c: SimplicialComplex, e) -> tuple[int, int, int]:
    """(g_2 before, g_2 after, g_1 of the edge link); the drop in g_2
    under an edge contraction equals g_1 of the link of the edge."""
    u, v = sorted(frozenset(e))
    lk = cc.link(c, {u, v})
    contracted = cc.contract_edge(c, u, v)
    return g_vector(c)[2], g_vector(contracted)[2], g_vector(lk)[1]


def find_induced_gamma(c: SimplicialComplex) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    """All 6-vertex subsets inducing the join of two empty triangles.

    Detection prunes by missing 2-faces: the subset must consist of two
    disjoint missing 2-faces, with all nine unions of an edge from each
    triangle being faces; the induced complex then automatically equals
    the join.  Each hit is returned with the vertex counts of the
    connected components of the complementary induced subcomplex.
    """
    _require_s24(c)
    triples = [m for m in missing_faces(c) if len(m) == 3]
    hits = []
    for t1, t2 in combinations(triples, 2):
        if t1 & t2:
            continue
        if not all(c.is_face(e1 + e2) for e1 in combinations(t1, 2)
                   for e2 in combinations(t2, 2)):
            continue
        w = t1 | t2
        rest = [v for v in c.vertices if v not in w]
        sizes: tuple[int, ...] = ()
        if rest:
            sub = cc.induced(c, rest)
            sizes = _component_sizes(sub)
        hits.append((w, sizes))
    return hits


def _component_sizes(c: SimplicialComplex) -> tuple[int, ...]:
    return tuple(sorted(len(comp) for comp in cc._components(c.vertices, c._tuples(1))))


class GammaDoesNotSeparate(ValueError):
    pass


def split_along_gamma(c: SimplicialComplex, subset) -> tuple[SimplicialComplex, SimplicialComplex]:
    """Split along an induced join-of-two-empty-triangles subcomplex.

    Facets are partitioned into two sides by connectivity through
    ridges not lying inside the subset; each side is then capped with a
    cone over the 3-sphere it bounds.  The split is refused when the
    subset does not separate the facet adjacency graph into exactly two
    parts, or when a side has fewer than two interior vertices (in that
    case the would-be summand is not smaller than the input).  The
    additivity identity g_2 = g_2(side 1) + g_2(side 2) - 2 is verified
    before returning.
    """
    w = frozenset(subset)
    hits = {hw for hw, _ in find_induced_gamma(c)}
    if w not in hits:
        raise ValueError(f"{sorted(w)} does not induce a join of two empty triangles")

    facets = sorted(c.facets, key=sorted)
    ridge_map: dict[frozenset[int], list[frozenset[int]]] = {}
    for f in facets:
        for v in f:
            ridge_map.setdefault(f - {v}, []).append(f)
    adjacent = [(fs[0], other) for ridge, fs in ridge_map.items()
                if not ridge <= w for other in fs[1:]]
    sides = cc._components(facets, adjacent)
    if len(sides) != 2:
        raise GammaDoesNotSeparate(
            f"adjacency graph falls into {len(sides)} parts, expected 2")

    gamma = cc.induced(c, w)
    fresh = max(c.vertices) + 1
    halves = []
    for i, side_facets in enumerate(sides):
        interior = {v for f in side_facets for v in f} - w
        if len(interior) < 2:
            raise ValueError(
                f"side {i + 1} has interior vertices {sorted(interior)}; "
                "refusing a split that does not shrink the complex")
        cap = [f | {fresh + i} for f in gamma.facets]
        halves.append(cc.from_facets([tuple(f) for f in side_facets] + [tuple(f) for f in cap]))

    g2_gamma_susp = g_vector(cc.suspension(gamma))[2]
    if g2_gamma_susp != 2:
        raise AssertionError(f"suspension of the separating 3-sphere has g_2 = {g2_gamma_susp}")
    lhs = g_vector(c)[2]
    rhs = g_vector(halves[0])[2] + g_vector(halves[1])[2] - g2_gamma_susp
    if lhs != rhs:
        raise AssertionError(f"additivity fails: {lhs} != {rhs}")
    return halves[0], halves[1]


@dataclass(frozen=True)
class ReductionReport:
    admissible_edges: tuple[frozenset[int], ...]
    induced_gammas: tuple[tuple[frozenset[int], tuple[int, ...]], ...]
    reduced: bool
    trace: tuple[tuple[str, tuple[int, int]], ...]
    final: SimplicialComplex


def violates_condition_two(gammas) -> list[frozenset[int]]:
    """The subsets whose complementary components all have >= 2 vertices."""
    return [w for w, sizes in gammas if sizes and min(sizes) >= 2]


def reduction_report(c: SimplicialComplex) -> ReductionReport:
    """Contract admissible edges greedily (smallest edge first) until
    none remain, then report both reduced-ness conditions.

    Only the input is checked to be a GF(2) homology 4-sphere.  Each
    contraction made satisfies the link condition, so it keeps the PL
    type, and the complexes along the way are not checked again."""
    _require_s24_sphere(c)
    trace: list[tuple[str, tuple[int, int]]] = []
    current = c
    edges = admissible_contractions(current)
    while edges:
        u, v = sorted(min(edges, key=sorted))
        current = cc.contract_edge(current, u, v)
        trace.append(("contract", (u, v)))
        edges = admissible_contractions(current)
    gammas = find_induced_gamma(current)
    reduced = not edges and not violates_condition_two(gammas)
    return ReductionReport(tuple(edges), tuple(gammas), reduced, tuple(trace), current)


def verify_theorem_main_s24(c: SimplicialComplex) -> tuple[int, Fraction, bool]:
    """Exact check of g_2 >= (2/5) f_0 - 6/5; returns (g_2, bound, holds)."""
    _require_s24_sphere(c)
    g2 = g_vector(c)[2]
    bound = Fraction(2, 5) * len(c.vertices) - Fraction(6, 5)
    return g2, bound, g2 >= bound


def probe_nevo(c: SimplicialComplex) -> tuple[int, int, bool]:
    """Conjecture probe only, never a pass/fail gate: (g_2, g_1, g_2 >= g_1)."""
    _require_s24_sphere(c)
    g = g_vector(c)
    return g[2], g[1], g[2] >= g[1]


# ---------------------------------------------------------------------------
# Classification of links with g_2 = 1
# ---------------------------------------------------------------------------

def classify_g2_one(c: SimplicialComplex):
    """Classify a (d-1)-sphere with g_2 = 1 and no missing faces of
    dimension above d-2 as either a join of two simplex boundaries or a
    cycle joined with a simplex boundary.

    Returns ("join-of-simplex-boundaries", i, d-i) or
    ("cycle-join-simplex-boundary", n), cross-checked by an explicit
    isomorphism with the model complex; None when neither form matches.
    """
    d = c.dim + 1
    if g_vector(c)[2] != 1:
        raise ValueError("classification applies to complexes with g_2 = 1")
    sets = missing_faces(c)

    if len(sets) == 2 and not (sets[0] & sets[1]) \
            and sets[0] | sets[1] == set(c.vertices):
        i, j = sorted((len(sets[0]) - 1, len(sets[1]) - 1))
        model = cc.join(cc.boundary_simplex(i), cc.boundary_simplex(j))
        if cc.are_isomorphic(c, model):
            return ("join-of-simplex-boundaries", i, j)

    for t in sets:
        if len(t) != d - 1:
            continue
        rest = set(c.vertices) - t
        if len(rest) < 4:
            continue
        sub = cc.induced(c, rest)
        if sub.dim != 1 or len(sub._tuples(1)) != len(rest):
            continue
        if _component_sizes(sub) != (len(rest),):
            continue
        model = cc.join(cc.cycle(len(rest)), cc.boundary_simplex(len(t) - 1))
        if cc.are_isomorphic(c, model):
            return ("cycle-join-simplex-boundary", len(rest))
    return None
