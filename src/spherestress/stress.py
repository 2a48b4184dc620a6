"""Affine stress spaces of embedded complexes, over exact rationals.

A degree-k stress on an embedded complex is a homogeneous polynomial in
the vertex variables, every term supported on a face, annihilated by
the derivative operators of the d coordinate linear forms and of the
all-ones form.  Bases are exact kernels of the stacked operator matrix,
put in reduced echelon form for reproducibility.  Dimensions and ranks
need no basis: ``stress_dim`` is the column count minus the rank of the
operator matrix, and socle dimensions compare each derivative span with
the stress space it lies in.  Both ranks go through the mod-p
certificate of ``linalg`` (a rank mod p is a lower bound on the rank
over Q), which settles a zero kernel or a span as large as its known
bound without elimination over Q, and otherwise falls back to exact
elimination over Q.  Every answer is the exact rational one:
coefficients are ``fractions.Fraction`` end to end, and the cone-lift
check is a span-membership test (an empty ``SparseRREF.reduce``
residual), not a linear solve.

Monomials are encoded as sorted tuples of vertex labels with repetition,
e.g. x_2^2 x_5 = (2, 2, 5); within a degree they are ordered
lexicographically on these tuples (graded lexicographic overall).

Genericity cannot be literal algebraic independence over Q with exact
rationals; it is emulated by seeded random rational coordinates plus a
two-seed rank-stability certificate (see certified_stress_dims), and a
disagreement raises DegenerateEmbeddingError.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import linalg
from .complex_core import SimplicialComplex, cone, link, star
from .enumeration import g_vector
from .sequences import SequenceVerdict

Monomial = tuple[int, ...]


# certified_stress_dims and its callers check seed s against s + this
SECOND_SEED_OFFSET = 1_000_003


class DegenerateEmbeddingError(RuntimeError):
    """Two seeds produced different stress dimensions; the embeddings
    cannot both be generic."""


@dataclass(frozen=True)
class Embedding:
    """Vertex coordinates in d-space, exact rationals.

    kind is "generic" (seeded random rationals) or "natural" (actual
    polytope coordinates supplied by the caller).
    """

    coords: dict[int, tuple[Fraction, ...]]
    d: int
    kind: str
    seed: int | None = None

    def __post_init__(self):
        for v, cs in self.coords.items():
            if len(cs) != self.d:
                raise ValueError(f"vertex {v} has {len(cs)} coordinates, expected {self.d}")


def generic_embedding(c: SimplicialComplex, seed: int, d: int | None = None) -> Embedding:
    """Seeded pseudo-generic embedding into d-space (default d = dim + 1).

    Coordinates are rationals with numerators drawn uniformly from a
    large symmetric range and small random denominators.
    """
    if d is None:
        d = c.dim + 1
    rng = random.Random(seed)
    coords = {}
    for v in c.vertices:
        coords[v] = tuple(
            Fraction(rng.randint(-(2 ** 20), 2 ** 20), rng.randint(1, 16))
            for _ in range(d))
    return Embedding(coords, d, "generic", seed)


def natural_embedding(c: SimplicialComplex, coords: dict[int, tuple[Fraction, ...]]) -> Embedding:
    if set(coords) != set(c.vertices):
        raise ValueError("coordinates must cover exactly the vertices")
    d = len(next(iter(coords.values())))
    return Embedding(dict(coords), d, "natural")


def theta_forms(e: Embedding) -> list[dict[int, Fraction]]:
    """The d+1 linear operator coefficient vectors: one per coordinate
    (theta_j = sum_v p(v)_j x_v) followed by the all-ones form."""
    forms = []
    for j in range(e.d):
        forms.append({v: cs[j] for v, cs in e.coords.items() if cs[j] != 0})
    forms.append({v: Fraction(1) for v in e.coords})
    return forms


# ---------------------------------------------------------------------------
# Monomials and stress polynomials
# ---------------------------------------------------------------------------

def monomial_support(mu: Monomial) -> frozenset[int]:
    return frozenset(mu)


def _remove_one(mu: Monomial, v: int) -> Monomial:
    out = list(mu)
    out.remove(v)
    return tuple(out)


def _multiplicities(mu: Monomial):
    seen: dict[int, int] = {}
    for v in mu:
        seen[v] = seen.get(v, 0) + 1
    return seen.items()


def face_monomials(c: SimplicialComplex, k: int) -> list[Monomial]:
    """All degree-k monomials whose support is a face, in graded-lex order."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k == 0:
        return [()]
    out: list[Monomial] = []
    for size in range(1, k + 1):
        for f in c.faces(size - 1):
            support = sorted(f)
            # compositions of k into len(support) positive parts
            for bars in combinations(range(1, k), size - 1):
                cuts = (0,) + bars + (k,)
                mono = []
                for idx, v in enumerate(support):
                    mono.extend([v] * (cuts[idx + 1] - cuts[idx]))
                out.append(tuple(mono))
    out.sort()
    return out


@dataclass(frozen=True)
class StressPolynomial:
    """A face-supported homogeneous polynomial; terms map monomials to
    nonzero rational coefficients."""

    degree: int
    terms: dict[Monomial, Fraction]

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mu: Monomial) -> Fraction:
        return self.terms.get(tuple(sorted(mu)), Fraction(0))

    def participates(self, tau) -> bool:
        """True when some nonzero term's support contains the face tau."""
        t = frozenset(tau)
        return any(t <= monomial_support(mu) for mu in self.terms)

    def support_vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for mu in self.terms:
            out.update(mu)
        return frozenset(out)

    def scaled(self, a: Fraction) -> "StressPolynomial":
        if a == 0:
            return StressPolynomial(self.degree, {})
        return StressPolynomial(self.degree, {m: c * a for m, c in self.terms.items()})

    def plus(self, other: "StressPolynomial") -> "StressPolynomial":
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, Fraction(0)) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return StressPolynomial(self.degree, out)


def _apply_form(terms: dict[Monomial, Fraction], form: dict[int, Fraction]):
    """Exact application of the derivative operator of a linear form."""
    out: dict[Monomial, Fraction] = {}
    for mu, coef in terms.items():
        for v, mult in _multiplicities(mu):
            a = form.get(v)
            if not a:
                continue
            nu = _remove_one(mu, v)
            nc = out.get(nu, Fraction(0)) + coef * mult * a
            if nc:
                out[nu] = nc
            else:
                out.pop(nu, None)
    return out


def derivative(omega: StressPolynomial, mu) -> StressPolynomial:
    """Partial derivative by the monomial mu (tuple of vertex labels);
    the derivative of a stress is again a stress of lower degree."""
    mu = tuple(mu)
    if len(mu) > omega.degree:
        raise ValueError("cannot differentiate below degree 0")
    terms = omega.terms
    for v in mu:
        terms = _apply_form(terms, {v: Fraction(1)})
    return StressPolynomial(omega.degree - len(mu), dict(terms))


def is_stress(c: SimplicialComplex, e: Embedding, omega: StressPolynomial) -> bool:
    """Direct verification: face-supported and killed by all d+1 operators.

    This is independent of the kernel solver and is used to cross-check
    computed bases.
    """
    for mu in omega.terms:
        if not c.is_face(monomial_support(mu)):
            return False
    return all(not _apply_form(omega.terms, f) for f in theta_forms(e))


@dataclass(frozen=True)
class StressBasis:
    complex: SimplicialComplex
    embedding: Embedding
    degree: int
    polys: tuple[StressPolynomial, ...] = field(default_factory=tuple)

    @property
    def dim(self) -> int:
        return len(self.polys)


def stress_space(c: SimplicialComplex, e: Embedding, k: int,
                 monomials: list[Monomial] | None = None) -> StressBasis:
    """Exact kernel basis of the stacked operator matrix in degree k.

    Columns are the face-supported degree-k monomials in graded-lex
    order; rows apply each of the d+1 linear-form derivatives.  The
    returned basis is the canonical reduced-echelon kernel basis.
    """
    if k < 1:
        raise ValueError("stress spaces are computed for degree k >= 1")
    cols = face_monomials(c, k) if monomials is None else monomials
    kernel = linalg.kernel_basis(_operator_rows(e, cols), range(len(cols)))
    polys = tuple(
        StressPolynomial(k, {cols[ci]: val for ci, val in sorted(vec.items())})
        for vec in kernel)
    return StressBasis(c, e, k, polys)


def _operator_rows(e: Embedding, cols: list[Monomial]) -> list[dict[int, Fraction]]:
    """Rows of the stacked operator matrix over the columns ``cols``: one
    per (linear form, degree-(k-1) monomial) pair that some column hits."""
    forms = theta_forms(e)
    rows: dict[tuple[int, Monomial], dict[int, Fraction]] = {}
    for ci, mu in enumerate(cols):
        for v, mult in _multiplicities(mu):
            nu = _remove_one(mu, v)
            for j, form in enumerate(forms):
                a = form.get(v)
                if not a:
                    continue
                # column ci meets row (j, nu) only through v = mu - nu
                rows.setdefault((j, nu), {})[ci] = mult * a
    return list(rows.values())


def stress_dim(c: SimplicialComplex, e: Embedding, k: int) -> int:
    """Dimension of the degree-k stress space: columns minus the exact
    rank of the operator matrix; no basis is built."""
    if k == 0:
        return 1  # the constants, so derivative chains terminate cleanly
    cols = face_monomials(c, k)
    return len(cols) - linalg.bounded_rank(_operator_rows(e, cols), len(cols))


def certified_stress_dims(c: SimplicialComplex, k: int, seed: int,
                          dim: int | None = None) -> int:
    """Stress dimension under the generic embeddings of ``seed`` and
    ``seed + SECOND_SEED_OFFSET``; a mismatch means at least one
    embedding is degenerate and raises.  A caller that already has the
    first seed's dimension passes it as ``dim``."""
    second = seed + SECOND_SEED_OFFSET
    if dim is None:
        dim = stress_dim(c, generic_embedding(c, seed), k)
    other = stress_dim(c, generic_embedding(c, second), k)
    if dim != other:
        raise DegenerateEmbeddingError(
            f"degenerate embedding: dims {dim} (seed {seed}) vs {other} (seed {second})")
    return dim


# ---------------------------------------------------------------------------
# Derivative spans, socle, level test
# ---------------------------------------------------------------------------

def derivative_span_dim(c: SimplicialComplex, e: Embedding, k: int,
                        basis_above: StressBasis | None = None,
                        bound: int | None = None) -> int:
    """Rank of {d/dx_v omega : omega in a basis of the degree-(k+1)
    space, v a vertex} inside the degree-k coefficient space.

    These derivatives are degree-k stresses, so the rank is at most the
    degree-k stress dimension; a caller that knows it passes it as
    ``bound``, and a rank mod p reaching the bound then proves the rank
    without elimination over Q.

    Convention at k = 0: the span of first derivatives of linear
    stresses is the constants, so the dimension is 1 exactly when the
    degree-1 space is nonzero.
    """
    if basis_above is None:
        basis_above = stress_space(c, e, k + 1)
    vectors = []
    for omega in basis_above.polys:
        for v in c.vertices:
            dv = _apply_form(omega.terms, {v: Fraction(1)})
            if dv:
                vectors.append(dv)
    if bound is None:
        return linalg.rank_of(vectors)
    return linalg.bounded_rank(vectors, bound)


def socle_dims(c: SimplicialComplex, e: Embedding) -> list[int]:
    """For k = 0..floor(d/2): dim of the degree-k stress space minus the
    rank of the variable-derivative images from degree k+1 (the socle of
    the Artinian reduction, computed dually)."""
    d = c.dim + 1
    half = d // 2
    spaces = {k: stress_space(c, e, k) for k in range(1, half + 2)}
    out = []
    for k in range(half + 1):
        dim_k = 1 if k == 0 else spaces[k].dim
        span_k = derivative_span_dim(c, e, k, basis_above=spaces[k + 1], bound=dim_k)
        out.append(dim_k - span_k)
    return out


def is_level(c: SimplicialComplex, e: Embedding, up_to: int) -> SequenceVerdict:
    """True when the socle dimensions vanish strictly below degree up_to."""
    d = c.dim + 1
    if up_to > d // 2:
        raise ValueError(f"up_to must be at most floor(d/2) = {d // 2}")
    soc = socle_dims(c, e)
    for k in range(up_to):
        if soc[k] != 0:
            return SequenceVerdict(False, failing_index=k,
                                   detail=f"socle dimension {soc[k]} in degree {k}")
    return SequenceVerdict(True, detail=f"socle vector {soc}")


# ---------------------------------------------------------------------------
# Star-supported stresses and the cone lift
# ---------------------------------------------------------------------------

def star_stress_witness(c: SimplicialComplex, e: Embedding, tau, i: int):
    """A degree-i stress supported inside star(tau) whose support
    contains the full (i-1)-skeleton of the simplex on tau, or None.

    Requires i <= (d - |tau|)/2 and g_i(link tau) >= 1; hypothesis
    failures raise ValueError.  The witness is found by solving the
    stress system restricted to the star and trying geometric
    coefficient combinations of the basis until every required face
    participates (each failure is a root of a nonzero polynomial, so
    the search terminates quickly for generic data).
    """
    t = frozenset(tau)
    d = c.dim + 1
    kk = len(t)
    if not c.is_face(t):
        raise ValueError(f"{sorted(t)} is not a face")
    if 2 * i > d - kk:
        raise ValueError(f"need i <= (d - {kk})/2, got i = {i}")
    g_link = g_vector(link(c, t))
    if i >= len(g_link) or g_link[i] < 1:
        raise ValueError(f"link has g_{i} = 0, no star-supported stress is promised")
    st = star(c, t)
    basis = stress_space(st, e, i, monomials=face_monomials(st, i)).polys
    if not basis:
        return None
    required = [frozenset(s) for size in range(1, i + 1)
                for s in combinations(sorted(t), size)]
    for rho in required:
        if not any(p.participates(rho) for p in basis):
            return None
    for tval in range(1, 2 + len(basis) * len(required)):
        omega = StressPolynomial(i, {})
        scale = Fraction(1)
        for p in basis:
            omega = omega.plus(p.scaled(scale))
            scale *= tval
        if all(omega.participates(rho) for rho in required):
            return omega
    return None


@dataclass(frozen=True)
class ConeLiftReport:
    apex: int
    dim_base: int
    dim_cone: int
    lifted: tuple[bool, ...]

    @property
    def all_lifted(self) -> bool:
        return all(self.lifted) and self.dim_cone >= self.dim_base


def cone_lift_check(delta: SimplicialComplex, i: int, seed: int) -> ConeLiftReport:
    """Check the cone lift on concrete data.

    The base complex (of dimension d-2) is embedded in d-1 coordinates
    as ratios a_{u,j}/b_u, its cone in d coordinates as (a_{u,1}, ...,
    a_{u,d-1}, b_u) with the apex at the origin.  Under these paired
    embeddings a base stress omega' lifts with apex-free part
    omega'(x_u / b_u): substituting x_u -> x_u/b_u turns each ratio-form
    condition into the matching coordinate-form condition and the base
    all-ones condition into the last coordinate condition, leaving only
    the cone's all-ones condition to be absorbed by apex monomials.
    The report records the two stress dimensions and, for every basis
    stress of the base, whether some stress of the cone restricts on
    the apex-free monomials to that rescaled polynomial.
    """
    rng = random.Random(seed)
    # the base has dimension d-2, so it is embedded in d-1 = delta.dim + 1 coordinates
    dm1 = delta.dim + 1
    a = {v: [rng.randint(1, 2 ** 24) * rng.choice((1, -1)) for _ in range(dm1)]
         for v in delta.vertices}
    b = {v: rng.randint(1, 2 ** 24) for v in delta.vertices}
    base = Embedding({v: tuple(Fraction(a[v][j], b[v]) for j in range(dm1))
                      for v in delta.vertices}, dm1, "generic", seed)
    apex = 0 if 0 not in delta.vertices else max(delta.vertices) + 1
    gamma = cone(delta, apex)
    lifted_coords = {v: tuple(Fraction(x) for x in a[v]) + (Fraction(b[v]),)
                     for v in delta.vertices}
    lifted_coords[apex] = tuple(Fraction(0) for _ in range(dm1 + 1))
    top = Embedding(lifted_coords, dm1 + 1, "generic", seed)

    base_basis = stress_space(delta, base, i)
    cone_basis = stress_space(gamma, top, i)
    projections = linalg.SparseRREF()
    for p in cone_basis.polys:
        projections.insert({mu: q for mu, q in p.terms.items() if apex not in mu})
    lifted = []
    for p in base_basis.polys:
        target = {}
        for mu, q in p.terms.items():
            scale = Fraction(1)
            for v in mu:
                scale /= b[v]
            target[mu] = q * scale
        lifted.append(not projections.reduce(target))
    return ConeLiftReport(apex, base_basis.dim, cone_basis.dim, tuple(lifted))


# ---------------------------------------------------------------------------
# Basis serialization
# ---------------------------------------------------------------------------

def basis_to_jsonable(basis: StressBasis) -> dict:
    """Exponent-vector to "p/q" maps, keys over the sorted vertex order."""
    order = list(basis.complex.vertices)
    out = []
    for p in basis.polys:
        entry = {}
        for mu, coef in sorted(p.terms.items()):
            exps = [0] * len(order)
            for v in mu:
                exps[order.index(v)] += 1
            key = ",".join(str(x) for x in exps)
            entry[key] = f"{coef.numerator}/{coef.denominator}"
        out.append(entry)
    return {
        "degree": basis.degree,
        "dim": basis.dim,
        "vertex_order": order,
        "basis": out,
    }
