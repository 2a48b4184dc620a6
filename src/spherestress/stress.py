"""Affine stress spaces of embedded complexes, over exact rationals.

A degree-k stress on an embedded complex is a homogeneous polynomial in
the vertex variables, every term supported on a face, annihilated by
the derivative operators of the d coordinate linear forms and of the
all-ones form.  Bases are exact kernels of the stacked operator matrix
in their canonical reduced echelon form (each pivot at its vector's
smallest column), read off the one elimination of that matrix, so they
do not depend on row order.  Coefficients are ``fractions.Fraction``
end to end, and the cone-lift check is a span-membership test (an
empty ``SparseRREF.reduce`` residual), not a linear solve.

Dimensions and socles need no basis over Q when a certificate settles
them, and one function, ``_stresses``, decides it for each degree.  A
rank mod p is at most the rank over Q, so the kernel mod p of the
operator matrix is at least as long as the kernel over Q: its length is
an upper bound on the stress dimension.  The lower bound is 0 for any
embedding.  On a GF(2)-homology sphere (by universal coefficients a
Q-homology sphere, and so are its links) whose embedding passes the
Kind-Kleinschmidt (1979) l.s.o.p. test (every facet's coordinate minor
nonzero mod p), the face ring is Cohen-Macaulay (Reisner 1976), the
Artinian reduction has dim A_k = h_k (Stanley 1996), and the degree-k
affine stresses, dual to A_k / omega A_{k-1} (Lee 1996), have dimension
at least g_k = h_k - h_{k-1}.  When the two bounds meet, that is the
dimension over Q and the kernel mod p is kept, so a
``stress-dim-equals-g`` PASS rests on these theorems plus a kernel mod
p, not on a kernel over Q.  A kept kernel mod p then bounds the rank of
the derivative spans from below, which settles a zero socle (see
``stress_numbers``).  Anything else (a non-sphere, a singular facet
minor, a denominator divisible by p, a kernel mod p longer than the
bound, a nonzero socle under a nonzero space) is computed by exact
elimination over Q.  The exported bases (``stress_space``,
``cone_lift_check``, the support counterexample) are always exact
kernels over Q: with no lower bound, a kernel mod p is kept only when
it is empty.

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
from .complex_core import SimplicialComplex, cone, is_z2_homology_sphere, link, star
from .enumeration import g_vector, h_vector
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


def generic_embedding(c: SimplicialComplex, seed: int) -> Embedding:
    """Seeded pseudo-generic embedding into d-space, d = dim + 1.

    Coordinates are rationals with numerators drawn uniformly from a
    large symmetric range and small random denominators.
    """
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


def stress_space(c: SimplicialComplex, e: Embedding, k: int) -> StressBasis:
    """Exact kernel basis of the stacked operator matrix in degree k.

    Columns are the face-supported degree-k monomials in graded-lex
    order; rows apply each of the d+1 linear-form derivatives.  The
    returned basis is the canonical reduced-echelon kernel basis.
    """
    if k < 1:
        raise ValueError("stress spaces are computed for degree k >= 1")
    # with no lower bound only an empty kernel mod p is kept, and it is exact
    terms, _ = _stresses(c, e, k, None)
    return StressBasis(c, e, k, tuple(StressPolynomial(k, t) for t in terms))


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
                rows.setdefault((j, nu), {})[ci] = a if mult == 1 else mult * a
    return list(rows.values())


def _cohen_macaulay_h(c: SimplicialComplex, e: Embedding) -> list[int] | None:
    """The h-vector of ``c`` when the stress dimensions of ``e`` are
    bounded below by it, None otherwise.

    The bound needs ``c`` pure and a GF(2)-homology sphere, hence a
    Q-homology sphere whose face ring is Cohen-Macaulay (Reisner 1976),
    and the d coordinate forms of ``e`` an l.s.o.p.: every facet's d x d
    coordinate matrix nonsingular (Kind-Kleinschmidt 1979), checked here
    as a rank mod p, which is at most the rank over Q.  Then A =
    Q[c]/(theta) has dim A_k = h_k (Stanley 1996), and the degree-k
    affine stresses, dual to A_k / omega A_{k-1} (Lee 1996), have
    dimension at least h_k - h_{k-1}.
    """
    d = c.dim + 1
    if e.d != d or not c.is_pure() or not is_z2_homology_sphere(c):
        return None
    for f in c.facets:
        minor = [{j: x for j, x in enumerate(e.coords[v]) if x} for v in f]
        if linalg.modp_rank(minor) != d:
            return None
    return h_vector(c)


def _dim_lower_bound(h: list[int] | None, k: int) -> int:
    """max(h_k - h_{k-1}, 0), a proven lower bound on the degree-k stress
    dimension when ``h`` comes from ``_cohen_macaulay_h``; 0 for None."""
    if h is None:
        return 0
    hk, below = (h[i] if i < len(h) else 0 for i in (k, k - 1))
    return max(hk - below, 0)


def _stresses(c: SimplicialComplex, e: Embedding, k: int,
              h: list[int] | None, exact: bool = False) -> tuple[list[dict], bool]:
    """The degree-k stresses of ``e`` as term dicts in graded-lex order,
    and whether they are a kernel over Q rather than mod p.

    The operator rows are built once and their kernel mod p taken; it is
    at least as long as the kernel over Q.  When its length meets the
    proven lower bound ``_dim_lower_bound(h, k)``, it is kept: its length
    is the dimension, and an empty one is also the kernel over Q.
    Otherwise, or with ``exact``, which skips the kernel mod p, the
    exact kernel over Q is returned.  This is the one place a kernel mod
    p is accepted."""
    cols = face_monomials(c, k)
    rows = _operator_rows(e, cols)
    kernel = None if exact else linalg.modp_kernel(rows, range(len(cols)))
    over_q = kernel is None or len(kernel) != _dim_lower_bound(h, k)
    if over_q:
        kernel = linalg.kernel_basis(rows, range(len(cols)))
    return [{cols[ci]: x for ci, x in sorted(vec.items())} for vec in kernel], over_q


def stress_dims(c: SimplicialComplex, e: Embedding, degrees) -> list[int]:
    """Dimension of the degree-k stress space for each k in ``degrees``,
    certified mod p where ``_stresses`` can.  The lower bound of
    ``_cohen_macaulay_h`` is checked once per call, for all degrees."""
    h = _cohen_macaulay_h(c, e)
    # degree 0 holds the constants, so derivative chains terminate cleanly
    return [len(_stresses(c, e, k, h)[0]) if k else 1 for k in degrees]


def stress_dim(c: SimplicialComplex, e: Embedding, k: int) -> int:
    """Dimension of the degree-k stress space (``stress_dims`` of one degree)."""
    return stress_dims(c, e, [k])[0]


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

def _derivatives(polys) -> list[dict]:
    """Every nonzero d/dx_v P for P in ``polys`` (term dicts, rational or
    mod p) and v a vertex.  A term mu of P reaches only the term mu - v
    of d/dx_v P, so no coefficient cancels."""
    out = []
    for terms in polys:
        by_vertex: dict[int, dict] = {}
        for mu, coef in terms.items():
            for v, mult in _multiplicities(mu):
                by_vertex.setdefault(v, {})[_remove_one(mu, v)] = coef * mult
        out.extend(by_vertex.values())
    return out


def derivative_span_dim(c: SimplicialComplex, e: Embedding, k: int,
                        basis_above: StressBasis | None = None) -> int:
    """Rank over Q of {d/dx_v omega : omega in a basis of the degree-(k+1)
    space, v a vertex} inside the degree-k coefficient space.

    Convention at k = 0: the span of first derivatives of linear
    stresses is the constants, so the dimension is 1 exactly when the
    degree-1 space is nonzero.
    """
    if basis_above is None:
        basis_above = stress_space(c, e, k + 1)
    return linalg.rank_of(_derivatives(p.terms for p in basis_above.polys))


def stress_numbers(c: SimplicialComplex, e: Embedding) -> tuple[list[int], list[int]]:
    """The stress dimensions in degrees 0..floor(d/2)+1 and the socle
    vector in degrees 0..floor(d/2); only the integers are returned.

    The socle in degree k is the degree-k dimension minus the rank of
    the derivatives of the degree-(k+1) stresses (the socle of the
    Artinian reduction, computed dually).  Under a zero degree-(k+1)
    space the socle is the whole degree-k space.  A degree-(k+1) kernel
    that ``_stresses`` kept mod p is the reduction of the p-integral
    stresses over Q, so the rank mod p of its derivatives is at most
    their rank over Q: reaching the degree-k dimension proves the
    degree-k socle 0.  Every other socle is computed over Q.
    """
    half = (c.dim + 1) // 2
    h = _cohen_macaulay_h(c, e)
    spaces = {k: _stresses(c, e, k, h) for k in range(1, half + 2)}
    dims = [1] + [len(spaces[k][0]) for k in range(1, half + 2)]
    socle = []
    for k in range(half + 1):
        terms, over_q = spaces[k + 1]
        if not terms:
            socle.append(dims[k])
        elif not over_q and linalg.modp_rank(_derivatives(terms)) == dims[k]:
            socle.append(0)
        else:
            if not over_q:  # kept mod p, but its derivatives fall short
                terms, _ = _stresses(c, e, k + 1, h, exact=True)
            socle.append(dims[k] - linalg.rank_of(_derivatives(terms)))
    return dims, socle


def socle_dims(c: SimplicialComplex, e: Embedding) -> list[int]:
    """The socle vector of ``stress_numbers``, in degrees 0..floor(d/2)."""
    return stress_numbers(c, e)[1]


def is_level(soc: list[int], up_to: int) -> SequenceVerdict:
    """True when the socle vector ``soc`` (of ``socle_dims``) vanishes
    strictly below degree up_to, which must not exceed its top degree."""
    if up_to >= len(soc):
        raise ValueError(f"up_to must be at most the top socle degree {len(soc) - 1}")
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
    basis = stress_space(st, e, i).polys
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
