"""Named sphere builders and the two end-to-end counterexample checks.

The shipped catalog covers boundary simplices, cycles, cross-polytopes,
the K(i, d-1) joins of three simplex boundaries, suspensions of cycle
joins, and the free-sum polytopes whose boundaries realize K(2m, 4m+1)
with explicit integer coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, islice
from math import comb

from . import complex_core as cc
from . import linalg
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


def cross_polytope(d: int) -> SimplicialComplex:
    """Boundary of the d-dimensional cross-polytope: the d-fold join of
    vertex pairs, labels (2i-1, 2i) antipodal."""
    if d < 1:
        raise ValueError("need d >= 1")
    return cc.join(*[cc.boundary_simplex(1) for _ in range(d)])


def _free_sum_coords(groups) -> dict[int, tuple[Fraction, ...]]:
    """Coordinates of the free sum of simplices, one per vertex group: a
    group's first vertices go on the next unused unit vectors and its
    last at minus their sum."""
    dim = sum(len(group) - 1 for group in groups)
    axes = iter(range(dim))
    coords: dict[int, tuple[Fraction, ...]] = {}
    for group in groups:
        units = [tuple(Fraction(int(j == i)) for j in range(dim))
                 for i in islice(axes, len(group) - 1)]
        coords.update(zip(group, units))
        coords[group[-1]] = tuple(-sum(xs) for xs in zip(*units))
    return coords


def build_K(i: int, d: int) -> NamedSphere:
    """The (d-1)-sphere K(i, d-1): the join of two boundary i-simplices
    and a boundary (d-2i)-simplex, defined for d/3 <= i <= d/2."""
    if not (3 * i >= d and 2 * i <= d):
        raise ValueError(f"K({i},{d - 1}) needs d/3 <= i <= d/2, got i={i}, d={d}")
    parts = [cc.boundary_simplex(i), cc.boundary_simplex(i)]
    if d - 2 * i >= 1:
        parts.append(cc.boundary_simplex(d - 2 * i))
    complex_ = cc.join(*parts)
    sphere = NamedSphere(f"K-{i}-{d - 1}", complex_)
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


def check_level_parameters(u: int, k: int) -> None:
    """Raise ValueError unless ``verify_counterexample_level(u, k)`` is
    defined and within the desk-scale cap; builds nothing."""
    if not u >= 3 * k >= 3:
        raise ValueError(f"need u >= 3k >= 3, got u={u}, k={k}")
    if u > 8:  # faces grow about 4x per u; u = 9 took 39 s and 1.4 GB on a 2-core host
        raise ValueError("desk-scale cap: u <= 8")


def verify_counterexample_level(u: int, k: int) -> LevelCounterexampleReport:
    """Reproduce the failure of levelness for the g-vector of K(u-k, 2u-1).

    The computed g-vector must match the piecewise formula band by band,
    end in g_u = 1, and fail the level necessary conditions (it is
    asymmetric: g_1 = 2 while g_{u-1} = 3).  The checks are
    combinatorial; the stress-space socle of the returned ``complex`` is
    checked by ``verify.rows_counterexample_level``.
    """
    check_level_parameters(u, k)
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
    dimension 4m+2: in each vertex group, the first vertices go on the
    next unused unit vectors and the last at minus their sum.  The
    boundary complex equals K(2m, 4m+1) and its only missing faces are
    the three vertex groups, which is verified here.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    u = 2 * m + 1
    groups = _polytope_groups(u)
    complex_ = cc.join(*(cc.boundary_simplex(len(group) - 1) for group in groups))
    if set(missing_faces(complex_)) != set(map(frozenset, groups)):
        raise ValueError("missing faces are not exactly the three vertex groups")
    emb = st.natural_embedding(complex_, _free_sum_coords(groups))
    return NamedSphere(f"polytope-{m}", complex_, natural_coords=emb)


def _expand(forms) -> dict[tuple[int, ...], Fraction]:
    """The product of linear forms, each a dict variable -> coefficient,
    as sorted-tuple monomials -> nonzero ``Fraction`` coefficient.  Int
    coefficients multiply as ints until the first ``Fraction`` factor."""
    out = {(): 1}
    for form in forms:
        product: dict = {}
        for mono, x in out.items():
            for v, y in form.items():
                key = tuple(sorted((*mono, v)))
                product[key] = product.get(key, 0) + x * y
        out = {mono: c for mono, c in product.items() if c}
    return {mono: Fraction(c) for mono, c in out.items()}


def support_stress_polynomial(m: int):
    """The explicit top-degree stress of polytope-m.

    With y_i the sum of the variables of group i and q = u/3:
    f = (y1 - q*y3)(y2 - q*y3)(y1 - y2)^(u-2).  Returns (f expanded in
    the vertex variables, the expansion of f in the y variables as a
    dict (a, b, c) -> coefficient).
    """
    u = 2 * m + 1
    q = Fraction(u, 3)
    # the integer factors first, so that most products are of ints
    forms = [*[{1: 1, 2: -1}] * (u - 2), {1: 1, 3: -q}, {2: 1, 3: -q}]
    f_y = {(mono.count(1), mono.count(2), mono.count(3)): c
           for mono, c in _expand(forms).items()}
    groups = _polytope_groups(u)
    terms = _expand([{v: c for i, c in form.items() for v in groups[i - 1]}
                     for form in forms])
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


def check_support_parameters(m: int) -> None:
    """Raise ValueError unless ``verify_counterexample_support(m)`` is
    defined and within the desk-scale cap; builds nothing."""
    if m < 1:
        raise ValueError("need m >= 1")
    if m > 2:  # m = 3 has a degree-7 system with 240,310 columns
        raise ValueError("desk-scale cap: m <= 2")


def verify_counterexample_support(m: int) -> SupportCounterexampleReport:
    """Reproduce the support gap of the top-degree stress space.

    Checks, all exact, on polytope-m with its natural embedding: the
    explicit product stress satisfies every operator equation; the
    degree-u stress space is one-dimensional (its dimension read from
    the certificate of ``stress.StressSpaces``), so the nonzero explicit
    stress spans it; the coefficient of y1^m y2^m y3 vanishes;
    consequently every face made of m vertices from each simplex group
    plus one triangle vertex is absent from the support; and the first
    derivatives of the explicit stress, which spans the top space, span
    a space of dimension strictly below g_{u-1}.
    """
    check_support_parameters(m)
    sphere = build_counterexample_polytope(m)
    c = sphere.complex
    emb = sphere.natural_coords
    u = 2 * m + 1
    f_poly, f_y = support_stress_polynomial(m)

    ops_hold = st.is_stress(c, emb, f_poly) and not f_poly.is_zero()
    [dim] = st.StressSpaces(c, emb).dims([u])

    mixed = f_y.get((m, m, 1), Fraction(0))

    group1, group2, group3 = _polytope_groups(u)
    candidates = [frozenset(fs) | frozenset(gs) | {v}
                  for fs in combinations(group1, m)
                  for gs in combinations(group2, m)
                  for v in group3]
    assert len(candidates) == 3 * comb(u, m) ** 2
    unsupported = sum(1 for face in candidates
                      if c.is_face(face) and not f_poly.participates(face))

    span = linalg.rank_of(st._derivatives([f_poly.terms]))
    g = g_vector(c)
    return SupportCounterexampleReport(
        name=sphere.name, m=m, u=u,
        operator_equations_hold=ops_hold,
        stress_space_dim=dim,
        explicit_stress_spans=ops_hold and dim == 1,
        mixed_coefficient=mixed,
        candidate_faces=len(candidates),
        unsupported_faces=unsupported,
        derivative_span_dim=span,
        g_top_minus1=g[u - 1])


# ---------------------------------------------------------------------------
# The shipped catalog
# ---------------------------------------------------------------------------

def _simplex(d: int) -> NamedSphere:
    return NamedSphere(f"boundary-simplex-{d}", cc.boundary_simplex(d))


def _cycle(n: int) -> NamedSphere:
    return NamedSphere(f"cycle-{n}", cc.cycle(n))


def _cross(d: int) -> NamedSphere:
    c = cross_polytope(d)
    coords = _free_sum_coords([[2 * i - 1, 2 * i] for i in range(1, d + 1)])
    return NamedSphere(f"cross-{d}", c, natural_coords=st.natural_embedding(c, coords))


def _cyclejoin(n: int, m: int) -> NamedSphere:
    return NamedSphere(f"cyclejoin-{n}-{m}", cyclejoin(n, m))


def build_family(family: str, args: list[int]) -> NamedSphere:
    """CLI-facing constructor: family name plus integer parameters.  Every
    catalog sphere is built through here as well."""
    constructors = {"simplex": (_simplex, 1), "cycle": (_cycle, 1), "cross": (_cross, 1),
                    "K": (build_K, 2), "cyclejoin": (_cyclejoin, 2),
                    "polytope": (build_counterexample_polytope, 1)}
    if family not in constructors:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(constructors)}")
    fn, arity = constructors[family]
    if len(args) != arity:
        raise ValueError(f"family {family!r} takes {arity} parameter(s), got {len(args)}")
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
    expected = _EXPECTED.get(name)
    if expected is not None:
        got = invariants(sphere.complex)
        if got != expected:
            raise ValueError(f"{name}: invariants {got} != expected {expected}")
    return replace(sphere, name=name)
