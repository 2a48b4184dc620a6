"""Named sphere builders and the two end-to-end counterexample checks.

The shipped catalog covers boundary simplices, cycles, cross-polytopes,
the K(i, d-1) joins of three simplex boundaries, suspensions of cycle
joins, and the free-sum polytopes whose boundaries realize K(2m, 4m+1)
with explicit integer coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from . import complex_core as cc
from . import stress as st
from .complex_core import SimplicialComplex, missing_faces
from .enumeration import InvariantVectors, g_vector, invariants
from .sequences import SequenceVerdict, level_necessary_conditions
from .stress import Embedding, StressPolynomial


@dataclass(frozen=True)
class NamedSphere:
    name: str
    complex: SimplicialComplex
    natural_coords: Embedding | None = None
    expected: InvariantVectors | None = None
    description: str = ""

    def __post_init__(self):
        if self.expected is not None:
            got = invariants(self.complex)
            if got != self.expected:
                raise ValueError(f"{self.name}: invariants {got} != expected {self.expected}")


def cross_polytope(d: int) -> SimplicialComplex:
    """Boundary of the d-dimensional cross-polytope: the d-fold join of
    vertex pairs, labels (2i-1, 2i) antipodal."""
    if d < 1:
        raise ValueError("need d >= 1")
    return cc.join(*[cc.boundary_simplex(1) for _ in range(d)])


def cross_polytope_coords(d: int) -> dict[int, tuple[Fraction, ...]]:
    coords = {}
    for i in range(1, d + 1):
        e = [Fraction(0)] * d
        e[i - 1] = Fraction(1)
        coords[2 * i - 1] = tuple(e)
        coords[2 * i] = tuple(-x for x in e)
    return coords


def build_K(i: int, d: int) -> NamedSphere:
    """The (d-1)-sphere K(i, d-1): the join of two boundary i-simplices
    and a boundary (d-2i)-simplex, defined for d/3 <= i <= d/2."""
    if not (3 * i >= d and 2 * i <= d):
        raise ValueError(f"K({i},{d - 1}) needs d/3 <= i <= d/2, got i={i}, d={d}")
    parts = [cc.boundary_simplex(i), cc.boundary_simplex(i)]
    desc = f"join of two boundary {i}-simplices"
    if d - 2 * i >= 1:
        parts.append(cc.boundary_simplex(d - 2 * i))
        desc += f" and a boundary {d - 2 * i}-simplex"
    complex_ = cc.join(*parts)
    sphere = NamedSphere(f"K-{i}-{d - 1}", complex_, description=desc)
    if cc.max_missing_dim(complex_) != i:
        raise ValueError(f"K({i},{d - 1}) fails its class membership check")
    return sphere


def cyclejoin(n: int, m: int) -> SimplicialComplex:
    """The 4-sphere: suspension of the join of an n-cycle and an m-cycle."""
    return cc.join(cc.boundary_simplex(1), cc.cycle(n), cc.cycle(m))


# ---------------------------------------------------------------------------
# The piecewise g-formula for K(u-k, 2u-1)
# ---------------------------------------------------------------------------

def example_g_formula(u: int, k: int, j: int) -> int:
    """g_j of K(u-k, 2u-1) for u >= 3k >= 3:

        j + 1       for 0 <= j <= 2k,
        2k + 1      for 2k + 1 <= j <= u - k,
        2u + 1 - 2j for u - k + 1 <= j <= u.
    """
    if not u >= 3 * k >= 3:
        raise ValueError(f"need u >= 3k >= 3, got u={u}, k={k}")
    if not 0 <= j <= u:
        raise ValueError(f"need 0 <= j <= u, got j={j}")
    if j <= 2 * k:
        return j + 1
    if j <= u - k:
        return 2 * k + 1
    return 2 * u + 1 - 2 * j


# ---------------------------------------------------------------------------
# Counterexample 1: the truncated g-vector is not a level sequence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelCounterexampleReport:
    name: str
    complex: SimplicialComplex
    u: int
    k: int
    g: tuple[int, ...]
    formula: tuple[int, ...]
    formula_matches: bool
    g_top: int
    g1: int
    g_top_minus1: int
    level_verdict: SequenceVerdict

    @property
    def reproduced(self) -> bool:
        return (self.formula_matches and self.g_top == 1
                and not self.level_verdict.holds)


def verify_counterexample_level(u: int, k: int) -> LevelCounterexampleReport:
    """Reproduce the failure of levelness for the g-vector of K(u-k, 2u-1).

    The computed g-vector must match the piecewise formula band by band,
    end in g_u = 1, and fail the level necessary conditions (it is
    asymmetric: g_1 = 2 while g_{u-1} = 3).  The checks are
    combinatorial; the stress-space socle of the returned ``complex`` is
    checked by ``verify.rows_counterexample_level``.
    """
    if not u >= 3 * k >= 3:
        raise ValueError(f"need u >= 3k >= 3, got u={u}, k={k}")
    if u > 12:
        raise ValueError("desk-scale cap: u <= 12")
    sphere = build_K(u - k, 2 * u)
    g = tuple(g_vector(sphere.complex))
    formula = tuple(example_g_formula(u, k, j) for j in range(u + 1))
    return LevelCounterexampleReport(
        name=sphere.name, complex=sphere.complex, u=u, k=k, g=g, formula=formula,
        formula_matches=(g == formula), g_top=g[u], g1=g[1], g_top_minus1=g[u - 1],
        level_verdict=level_necessary_conditions(list(g)))


# ---------------------------------------------------------------------------
# Counterexample 2: a face participating in no top-degree stress
# ---------------------------------------------------------------------------

def _polytope_groups(u: int) -> tuple[list[int], list[int], list[int]]:
    """The vertex groups of polytope-m, u = 2m+1, labelled 1..2u+3 in
    order: the vertices of the two 2m-simplices and of the triangle."""
    return (list(range(1, u + 1)), list(range(u + 1, 2 * u + 1)),
            [2 * u + 1, 2 * u + 2, 2 * u + 3])


def build_counterexample_polytope(m: int) -> NamedSphere:
    """Boundary of the free sum of two 2m-simplices and a triangle.

    The 2u+3 vertices (u = 2m+1) carry explicit integer coordinates in
    dimension 4m+2; the boundary complex equals K(2m, 4m+1) and its only
    missing faces are the three vertex groups, which is verified here.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    u = 2 * m + 1
    amb = 2 * u
    group1, group2, group3 = _polytope_groups(u)

    def unit(j: int) -> list[Fraction]:
        e = [Fraction(0)] * amb
        e[j - 1] = Fraction(1)
        return e

    def neg_sum(axes) -> tuple[Fraction, ...]:
        e = [Fraction(0)] * amb
        for j in axes:
            e[j - 1] = Fraction(-1)
        return tuple(e)

    coords: dict[int, tuple[Fraction, ...]] = {}
    for idx, v in enumerate(group1[:-1]):
        coords[v] = tuple(unit(idx + 1))
    coords[group1[-1]] = neg_sum(range(1, u))
    for idx, v in enumerate(group2[:-1]):
        coords[v] = tuple(unit(u + idx))
    coords[group2[-1]] = neg_sum(range(u, 2 * u - 1))
    coords[group3[0]] = tuple(unit(2 * u - 1))
    coords[group3[1]] = tuple(unit(2 * u))
    coords[group3[2]] = neg_sum((2 * u - 1, 2 * u))

    complex_ = cc.join(cc.boundary_simplex(u - 1), cc.boundary_simplex(u - 1),
                       cc.boundary_simplex(2))
    found = {mf.vertex_set for mf in missing_faces(complex_)}
    expected = {frozenset(group1), frozenset(group2), frozenset(group3)}
    if found != expected:
        raise ValueError("missing faces are not exactly the three vertex groups")
    emb = st.natural_embedding(complex_, coords)
    return NamedSphere(
        f"polytope-{m}", complex_, natural_coords=emb,
        description=f"free sum of two {2 * m}-simplices and a triangle, "
                    f"boundary K({2 * m},{4 * m + 1})")


def _group_power(group: list[int], a: int) -> dict[tuple[int, ...], Fraction]:
    """Multinomial expansion of (sum of the group variables)^a."""
    out: dict[tuple[int, ...], Fraction] = {}
    if a == 0:
        return {(): Fraction(1)}
    from itertools import combinations_with_replacement
    for mono in combinations_with_replacement(group, a):
        counts: dict[int, int] = {}
        for v in mono:
            counts[v] = counts.get(v, 0) + 1
        coef = factorial(a)
        for e in counts.values():
            coef //= factorial(e)
        out[tuple(mono)] = Fraction(coef)
    return out


def support_stress_polynomial(m: int):
    """The explicit top-degree stress of polytope-m.

    With y_i the sum of the variables of group i and q = u/3:
    f = (y1 - q*y3)(y2 - q*y3)(y1 - y2)^(u-2).  Returns (f expanded in
    the vertex variables, the expansion of f in the y variables as a
    dict (a, b, c) -> coefficient).
    """
    u = 2 * m + 1
    q = Fraction(u, 3)

    def mul(p, qp):
        out: dict[tuple[int, int, int], Fraction] = {}
        for (a1, b1, c1), x in p.items():
            for (a2, b2, c2), y in qp.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                nv = out.get(key, Fraction(0)) + x * y
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
        return out

    f_y = {(1, 0, 0): Fraction(1), (0, 0, 1): -q}
    f_y = mul(f_y, {(0, 1, 0): Fraction(1), (0, 0, 1): -q})
    for _ in range(u - 2):
        f_y = mul(f_y, {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(-1)})

    group1, group2, group3 = _polytope_groups(u)
    terms: dict[tuple[int, ...], Fraction] = {}
    for (a, b, c), coef in f_y.items():
        for m1, c1 in _group_power(group1, a).items():
            for m2, c2 in _group_power(group2, b).items():
                for m3, c3 in _group_power(group3, c).items():
                    mono = tuple(sorted(m1 + m2 + m3))
                    nv = terms.get(mono, Fraction(0)) + coef * c1 * c2 * c3
                    if nv:
                        terms[mono] = nv
                    else:
                        terms.pop(mono, None)
    return StressPolynomial(u, terms), f_y


@dataclass(frozen=True)
class SupportCounterexampleReport:
    name: str
    m: int
    u: int
    operator_equations_hold: bool
    stress_space_dim: int
    explicit_stress_spans: bool
    mixed_coefficient: Fraction
    candidate_faces: int
    unsupported_faces: int
    derivative_span_dim: int
    g_top_minus1: int

    @property
    def reproduced(self) -> bool:
        return (self.operator_equations_hold
                and self.stress_space_dim == 1
                and self.explicit_stress_spans
                and self.mixed_coefficient == 0
                and self.unsupported_faces == self.candidate_faces
                and self.derivative_span_dim < self.g_top_minus1)


def verify_counterexample_support(m: int) -> SupportCounterexampleReport:
    """Reproduce the support gap of the top-degree stress space.

    Checks, all exact, on polytope-m with its natural embedding: the
    explicit product stress satisfies every operator equation; the
    degree-u stress space is one-dimensional and spanned by it; the
    coefficient of y1^m y2^m y3 vanishes; consequently every face made
    of m vertices from each simplex group plus one triangle vertex is
    absent from the support; and the span of the first derivatives of
    the top space has dimension strictly below g_{u-1}.
    """
    sphere = build_counterexample_polytope(m)
    c = sphere.complex
    emb = sphere.natural_coords
    u = 2 * m + 1
    f_poly, f_y = support_stress_polynomial(m)

    ops_hold = st.is_stress(c, emb, f_poly) and not f_poly.is_zero()

    basis = st.stress_space(c, emb, u)
    spans = False
    if basis.dim == 1:
        b0 = basis.polys[0]
        common = next(iter(f_poly.terms))
        denom = b0.terms.get(common)
        if denom:
            ratio = f_poly.terms[common] / denom
            spans = b0.scaled(ratio).terms == f_poly.terms

    mixed = f_y.get((m, m, 1), Fraction(0))

    group1, group2, group3 = _polytope_groups(u)
    candidates = [frozenset(fs) | frozenset(gs) | {v}
                  for fs in combinations(group1, m)
                  for gs in combinations(group2, m)
                  for v in group3]
    assert len(candidates) == 3 * comb(u, m) ** 2
    unsupported = sum(1 for face in candidates
                      if c.is_face(face) and not f_poly.participates(face))

    span = st.derivative_span_dim(c, emb, u - 1, basis_above=basis)
    g = g_vector(c)
    return SupportCounterexampleReport(
        name=sphere.name, m=m, u=u,
        operator_equations_hold=ops_hold,
        stress_space_dim=basis.dim,
        explicit_stress_spans=spans,
        mixed_coefficient=mixed,
        candidate_faces=len(candidates),
        unsupported_faces=unsupported,
        derivative_span_dim=span,
        g_top_minus1=g[u - 1])


# ---------------------------------------------------------------------------
# The shipped catalog
# ---------------------------------------------------------------------------

def _simplex(d: int) -> NamedSphere:
    return NamedSphere(f"boundary-simplex-{d}", cc.boundary_simplex(d),
                       description=f"boundary complex of a {d}-simplex")


def _cycle(n: int) -> NamedSphere:
    return NamedSphere(f"cycle-{n}", cc.cycle(n), description=f"{n}-cycle")


def _cross(d: int) -> NamedSphere:
    return NamedSphere(
        f"cross-{d}", cross_polytope(d),
        natural_coords=st.natural_embedding(cross_polytope(d), cross_polytope_coords(d)),
        description=f"boundary of the {d}-dimensional cross-polytope")


def _cyclejoin(n: int, m: int) -> NamedSphere:
    return NamedSphere(f"cyclejoin-{n}-{m}", cyclejoin(n, m),
                       description=f"suspension of the join of a {n}-cycle and a {m}-cycle")


def build_family(family: str, args: list[int]) -> NamedSphere:
    """CLI-facing constructor: family name plus integer parameters.  Every
    catalog sphere is built through here as well."""
    constructors = {"simplex": (_simplex, 1), "cycle": (_cycle, 1), "cross": (_cross, 1),
                    "K": (build_K, 2), "cyclejoin": (_cyclejoin, 2),
                    "polytope": (build_counterexample_polytope, 1)}
    fn, arity = constructors.get(family, (None, None))
    if fn is None or len(args) != arity:
        raise ValueError(f"unknown family {family!r} with {len(args)} parameters")
    return fn(*args)


# The shipped suspended cycle joins, 3 <= n <= m <= 6, by catalog name.
_CYCLEJOINS = {f"cyclejoin-{n}-{m}": (n, m) for n in range(3, 7) for m in range(n, 7)}

# Catalog name -> (family, parameters) of ``build_family``, in listing order.
_REGISTRY = {
    **{f"boundary-simplex-{d}": ("simplex", [d]) for d in range(2, 9)},
    **{f"cycle-{n}": ("cycle", [n]) for n in range(3, 9)},
    "octahedron": ("cross", [3]),
    **{f"cross-{d}": ("cross", [d]) for d in range(2, 8)},
    "K-2-4": ("K", [2, 5]),
    "K-2-5": ("K", [2, 6]),
    "K-3-6": ("K", [3, 7]),
    "K-3-7": ("K", [3, 8]),
    **{name: ("cyclejoin", list(nm)) for name, nm in _CYCLEJOINS.items()},
    **{f"polytope-{m}": ("polytope", [m]) for m in (1, 2)},
}

# Invariants that ``build`` checks on a fresh sphere.
_EXPECTED = {
    "octahedron": InvariantVectors(f=(1, 6, 12, 8), h=(1, 3, 3, 1), g=(1, 2, 0),
                                   gamma=(1, 0), d=3),
    "K-2-4": InvariantVectors(f=(1, 8, 27, 48, 45, 18), h=(1, 3, 5, 5, 3, 1),
                              g=(1, 2, 2, 0), gamma=(1, -2, 1), d=5),
    "K-2-5": InvariantVectors(f=(1, 9, 36, 81, 108, 81, 27), h=(1, 3, 6, 7, 6, 3, 1),
                              g=(1, 2, 3, 1), gamma=(1, -3, 3, -1), d=6),
}

# The spheres on which the vertex-link sum rules, stress dimensions and
# socle identities are verified end to end.
RESIDUAL = ("octahedron", "cross-4", "cross-5", "cross-6", "K-2-4", "K-2-5", *_CYCLEJOINS)

# The shipped 4-spheres without missing faces of dimension > 2.
S24 = ("K-2-4", "cross-5", *_CYCLEJOINS)


def catalog_names() -> list[str]:
    return list(_REGISTRY)


def build(name: str) -> NamedSphere:
    if name not in _REGISTRY:
        raise KeyError(f"unknown catalog name {name!r}")
    sphere = build_family(*_REGISTRY[name])
    return replace(sphere, name=name, expected=_EXPECTED.get(name))
