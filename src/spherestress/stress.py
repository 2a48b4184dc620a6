"""Affine stress spaces of embedded complexes, over exact rationals.

A degree-k stress on an embedded complex is a homogeneous polynomial in
the vertex variables, every term supported on a face, annihilated by
the derivative operators of the d coordinate linear forms and of the
all-ones form.  Bases are exact kernels of the stacked operator matrix
in their canonical reduced echelon form (each pivot at its vector's
smallest column), read off the one elimination of that matrix, so they
do not depend on row order.  On the path over Q, coefficients are
``fractions.Fraction`` end to end; a kernel kept mod p (below) has int
coefficients in [0, p).  The cone-lift check is a span-membership test
(an empty ``SparseRREF.reduce`` residual), not a linear solve.

Dimensions and socles need no basis over Q when a certificate settles
them, and one method, ``StressSpaces.stresses``, decides it for each
degree.  A rank mod p is at most the rank over Q, so the kernel mod p
of the operator matrix is at least as long as the kernel over Q: its
length is an upper bound on the stress dimension.  The lower bound is
0 for any embedding.  On a GF(2)-homology sphere (by universal
coefficients a Q-homology sphere, and so are its links) whose embedding
passes the Kind-Kleinschmidt (1979) l.s.o.p. test (every facet's
coordinate minor nonzero mod p), the face ring is Cohen-Macaulay
(Reisner 1976), the Artinian reduction has dim A_k = h_k (Stanley
1996), and the degree-k affine stresses, dual to A_k / omega A_{k-1}
(Lee 1996), have dimension at least g_k = h_k - h_{k-1}.  When the two
bounds meet, that is the dimension over Q and the kernel mod p is kept,
so a ``stress-dim-equals-g`` PASS rests on these theorems plus a kernel
mod p, not on a kernel over Q.  A is moreover Gorenstein with socle
degree d (Stanley 1996), so a degree above the middle is read off its
mirror degree with no rows built (see ``StressSpaces.stresses``).  A
kept kernel mod p bounds the rank of its derivative span from below,
and the d+1 operator forms bound it from above, which together settle
a socle (see ``StressSpaces.socle``); the rank mod p stops as soon as
it reaches the rank at which the two bounds meet.  Anything else (a
non-sphere, a singular facet minor, a denominator divisible by p, a
kernel mod p longer than the bound, a socle whose two bounds differ) is
computed by exact elimination over Q, so a rank that drops mod p costs
only time.

Each embedding's coordinates are converted mod p once, where their
denominators are: ``StressSpaces`` passes the theta forms through
``linalg.to_modp``, which refuses the embedding when a denominator is
divisible by p.  The facet minors of the l.s.o.p. test and the operator
rows mod p are built from the converted values (an entry mult * a is
mult * a_p mod p), and the rows over Q only on the fallback.  The
minors are ranked on the prefix trie of the sorted facets, so facets
that share their first vertices share the elimination of those rows
(see ``_cohen_macaulay_h``).  This is sound for any p: a coordinate a/b
with p not dividing b makes every entry mult * a/b p-integral,
reduction mod p is a ring map on those entries, so the rows built mod p
are the reduction of the rows over Q.
Every vertex meets some column, so refusing a coordinate is at least as
strict as refusing an entry.  A ``StressSpaces`` holds one embedding's
converted forms, its lower bound, its stresses by degree and its socle,
each computed at most once and only on request; a caller holds one per
embedding, and ``verify`` keeps one per complex for a whole run.

The exported bases (``StressSpaces.basis``, and through it
``StressSpaces.derivative_span_dim``, ``cone_lift_check`` and
``star_stress_witness``) are exact kernels over Q.  A degree not yet
computed is eliminated over Q alone, so a caller that asks only for
bases converts nothing mod p and runs no l.s.o.p. test; a degree that
``stresses`` kept mod p is eliminated over Q once and replaced.

Monomials are encoded as sorted tuples of vertex labels with repetition,
e.g. x_2^2 x_5 = (2, 2, 5); within a degree they are ordered
lexicographically on these tuples (graded lexicographic overall).

Genericity cannot be literal algebraic independence over Q with exact
rationals; it is emulated by seeded random rational coordinates plus a
two-seed rank-stability certificate (see certified_stress_dims), and a
disagreement raises DegenerateEmbeddingError.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
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
        for support in c._tuples(size - 1):
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

    @functools.cached_property
    def _supports(self) -> frozenset[frozenset[int]]:
        return frozenset(map(frozenset, self.terms))  # the distinct term supports

    def participates(self, tau) -> bool:
        """True when some nonzero term's support contains the face tau."""
        t = frozenset(tau)
        return any(t <= s for s in self._supports)

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
    return (all(c.is_face(mu) for mu in omega.terms)
            and all(not _apply_form(omega.terms, f) for f in theta_forms(e)))


def _operator_rows(forms: list[dict], cols: list[Monomial], p: int | None = None) -> list[dict]:
    """Rows of the stacked operator matrix over the columns ``cols``: one
    block of rows, one per linear form, for each degree-(k-1) monomial
    that some column hits, with the empty rows dropped.  The ``forms``
    are ``theta_forms`` over Q, or their images mod ``p``
    (``StressSpaces.forms_p``), and the entries mult * a are then
    reduced mod ``p``: the entrywise reduction of the rows over Q."""
    blocks: dict[Monomial, list[dict]] = {}
    for ci, mu in enumerate(cols):
        for v, mult in _multiplicities(mu):
            nu = _remove_one(mu, v)
            block = blocks.get(nu)
            if block is None:
                block = blocks[nu] = [{} for _ in forms]
            # column ci meets the rows of block nu only through v = mu - nu
            for row, form in zip(block, forms):
                a = form.get(v)
                if not a:
                    continue
                if mult > 1:
                    a *= mult
                    if p is not None:
                        a %= p
                        if not a:
                            continue
                row[ci] = a
    return [row for block in blocks.values() for row in block if row]


def _cohen_macaulay_h(c: SimplicialComplex, e: Embedding,
                      forms_p: list[dict] | None) -> list[int] | None:
    """The h-vector of ``c`` when the stress dimensions of ``e`` are
    bounded below by it, None otherwise; ``forms_p`` is
    ``StressSpaces.forms_p``.

    The bound needs ``c`` pure and a GF(2)-homology sphere, hence a
    Q-homology sphere whose face ring is Cohen-Macaulay (Reisner 1976),
    and the d coordinate forms of ``e`` an l.s.o.p.: every facet's d x d
    coordinate matrix nonsingular (Kind-Kleinschmidt 1979), checked here
    as a rank mod p of its reduction, which is at most the rank over Q.
    Then A = Q[c]/(theta) has dim A_k = h_k (Stanley 1996), and the
    degree-k affine stresses, dual to A_k / omega A_{k-1} (Lee 1996),
    have dimension at least h_k - h_{k-1}.

    The minors are ranked on the prefix trie of the sorted facets: each
    distinct prefix gets one ``SparseRREF`` mod p, a copy of its
    parent's with the coordinate row of its last vertex inserted, and
    the test fails at the first insertion that does not raise the rank.
    A facet's minor has rank d exactly when each of the d insertions
    along its path raises the rank, so this is one rank per facet minor
    with the shared prefixes eliminated once.
    """
    d = c.dim + 1
    if (forms_p is None or e.d != d or not c.is_pure()
            or not is_z2_homology_sphere(c)):
        return None
    rows = {v: {j: form[v] for j, form in enumerate(forms_p[:d]) if v in form}
            for v in c.vertices}
    # levels[i] eliminates the first i + 1 vertices of the current facet
    levels: list[linalg.SparseRREF] = []
    previous: list[int] = []
    for f in sorted(map(sorted, c.facets)):
        shared = 0
        while shared < len(previous) and f[shared] == previous[shared]:
            shared += 1
        del levels[shared:]
        for v in f[shared:]:
            rr = levels[-1].copy() if levels else linalg.SparseRREF(modulus=linalg.PRIME)
            if not rr.insert(rows[v]):
                return None
            levels.append(rr)
        previous = f
    return h_vector(c)


def _dim_lower_bound(h: list[int] | None, k: int) -> int:
    """max(h_k - h_{k-1}, 0), a proven lower bound on the degree-k stress
    dimension when ``h`` comes from ``_cohen_macaulay_h``; 0 for None."""
    if h is None:
        return 0
    hk, below = (h[i] if i < len(h) else 0 for i in (k, k - 1))
    return max(hk - below, 0)


def _kernel_terms(cols: list[Monomial], kernel: list[dict]) -> list[dict]:
    return [{cols[ci]: x for ci, x in sorted(vec.items())} for vec in kernel]


class StressSpaces:
    """The stress spaces of one embedded complex, each computed at most
    once and only on request: the embedding's theta forms converted mod
    p (``forms_p``, None when ``linalg.to_modp`` refuses a denominator),
    the lower bound of ``_cohen_macaulay_h`` (``h``), each degree's
    stresses (``stresses``), and the socle (``socle``).  The exact bases
    over Q (``basis``) and the derivative spans over Q
    (``derivative_span_dim``) read and fill the same per-degree entries,
    so a degree is eliminated over Q at most once, and a caller that
    asks only for bases converts nothing mod p."""

    def __init__(self, c: SimplicialComplex, e: Embedding):
        self.complex = c
        self.embedding = e
        self._by_degree: dict[int, tuple[list[dict], bool]] = {}

    @functools.cached_property
    def forms_p(self) -> list[dict] | None:
        return linalg.to_modp(theta_forms(self.embedding))

    @functools.cached_property
    def h(self) -> list[int] | None:
        return _cohen_macaulay_h(self.complex, self.embedding, self.forms_p)

    def stresses(self, k: int) -> tuple[list[dict], bool]:
        """The degree-k stresses (k >= 1) as term dicts in graded-lex
        order, and whether they are the kernel over Q rather than a
        longer kernel mod p; computed on the first request.

        The operator rows are built mod p from ``forms_p`` and their
        kernel mod p taken; it is at least as long as the kernel over Q.
        When its length meets the proven lower bound
        ``_dim_lower_bound(h, k)``, it is kept: its length is the
        dimension, and an empty one is also the kernel over Q.
        Otherwise, or when ``forms_p`` is None, the rows are built over
        Q and their exact kernel is returned.  This is the one place a
        kernel mod p is accepted.

        Above the middle (2k > d+1), with ``h``, degree k is empty and
        no rows are built when its mirror degree j = d+1-k is below 1
        (h_k = 0 above degree d) or has dimension exactly h_j - h_{j-1}.
        A = Q[c]/(theta) is Gorenstein with socle degree d (Stanley
        1996), so omega: A_{k-1} -> A_k and omega: A_{j-1} -> A_j are
        adjoint and have equal rank; the second is injective, so the
        dimension is h_k - h_{j-1} = 0 by Dehn-Sommerville."""
        if k in self._by_degree:
            return self._by_degree[k]
        j = self.complex.dim + 2 - k  # the mirror degree d + 1 - k
        if j < k and self.h is not None and (
                j < 1 or self.dims([j])[0] == self.h[j] - self.h[j - 1]):
            found = self._by_degree[k] = [], True
            return found
        cols = face_monomials(self.complex, k)
        if self.forms_p is not None:
            rows = _operator_rows(self.forms_p, cols, linalg.PRIME)
            kernel = linalg.modp_kernel(rows, range(len(cols)))
            if len(kernel) == _dim_lower_bound(self.h, k):
                found = self._by_degree[k] = _kernel_terms(cols, kernel), not kernel
                return found
        return self._eliminate_over_q(k, cols)

    def _eliminate_over_q(self, k: int, cols: list[Monomial]) -> tuple[list[dict], bool]:
        """The exact kernel over Q of the degree-k rows over the columns
        ``cols``, recorded as the degree's stresses."""
        rows = _operator_rows(theta_forms(self.embedding), cols)
        found = self._by_degree[k] = (
            _kernel_terms(cols, linalg.kernel_basis(rows, range(len(cols)))), True)
        return found

    def basis(self, k: int) -> tuple[StressPolynomial, ...]:
        """The exact degree-k stress basis over Q (k >= 1): the canonical
        reduced-echelon kernel of the stacked operator matrix, whose
        columns are the face-supported degree-k monomials in graded-lex
        order and whose rows apply each of the d+1 linear-form
        derivatives.  A degree whose ``stresses`` are already the kernel
        over Q is reused; any other is eliminated over Q here, with no
        kernel mod p taken first, and replaces a kernel kept mod p."""
        if k < 1:
            raise ValueError("stress spaces are computed for degree k >= 1")
        terms, over_q = self._by_degree.get(k, (None, False))
        if not over_q:
            terms, _ = self._eliminate_over_q(k, face_monomials(self.complex, k))
        return tuple(StressPolynomial(k, t) for t in terms)

    def derivative_span_dim(self, k: int) -> int:
        """Rank over Q of {d/dx_v omega : omega in ``basis(k + 1)``, v a
        vertex} inside the degree-k coefficient space.

        Convention at k = 0: the span of first derivatives of linear
        stresses is the constants, so the dimension is 1 exactly when the
        degree-1 space is nonzero.
        """
        return linalg.rank_of(_derivatives(p.terms for p in self.basis(k + 1)))

    def dims(self, degrees) -> list[int]:
        """The stress dimension in each of ``degrees``."""
        # degree 0 holds the constants, so derivative chains terminate cleanly
        return [len(self.stresses(k)[0]) if k else 1 for k in degrees]

    @functools.cached_property
    def socle(self) -> list[int]:
        """The socle vector in degrees 0..floor(d/2).

        The socle in degree k is the degree-k dimension minus the rank
        of the derivatives of the degree-(k+1) stresses (the socle of
        the Artinian reduction, computed dually), settled between two
        bounds.  A degree-(k+1) kernel that ``stresses`` kept mod p is
        the reduction of the p-integral stresses over Q, so the rank mod
        p of its derivatives is at most their rank over Q, and the socle
        is at most dims_k less that rank (dims_k for a kernel over Q).
        Every stress is killed by the d+1 operator forms, so the map
        from a linear form to its derivative of omega vanishes on their
        span, of codimension dims_1, and the socle is at least
        max(dims_k - dims_1 * dims_{k+1}, 0): under a zero degree-(k+1)
        space, the whole degree.  When the bounds meet, that is the
        socle; every other socle is computed over Q, by
        ``derivative_span_dim``.  The rank mod p stops once it reaches
        dims_k less the lower bound: it cannot pass it (rank_p <= rank_Q
        <= dims_k - socle_k <= dims_k - lower), and from there the
        upper bound equals the lower.
        """
        half = (self.complex.dim + 1) // 2
        dims = self.dims(range(half + 2))
        socle = []
        for k in range(half + 1):
            terms, over_q = self.stresses(k + 1)
            lower = max(dims[k] - dims[1] * dims[k + 1], 0)
            upper = dims[k] - (0 if over_q else linalg.modp_rank(
                _derivatives(terms, linalg.PRIME), dims[k] - lower))
            socle.append(upper if upper == lower else dims[k] - self.derivative_span_dim(k))
        return socle


def certified_stress_dims(c: SimplicialComplex, k: int, seed: int) -> int:
    """Stress dimension under the generic embeddings of ``seed`` and
    ``seed + SECOND_SEED_OFFSET``; a mismatch means at least one
    embedding is degenerate and raises."""
    second = seed + SECOND_SEED_OFFSET
    dim, other = (StressSpaces(c, generic_embedding(c, s)).dims([k])[0]
                  for s in (seed, second))
    if dim != other:
        raise DegenerateEmbeddingError(
            f"degenerate embedding: dims {dim} (seed {seed}) vs {other} (seed {second})")
    return dim


# ---------------------------------------------------------------------------
# Derivative spans and the level test
# ---------------------------------------------------------------------------

def _derivatives(polys, p: int | None = None) -> list[dict]:
    """Every nonzero d/dx_v P for P in ``polys`` (term dicts, rational,
    or mod ``p`` and then reduced mod ``p``) and v a vertex.  A term mu
    of P reaches only the term mu - v of d/dx_v P, so no coefficient
    cancels over Q."""
    out = []
    for terms in polys:
        by_vertex: dict[int, dict] = {}
        for mu, coef in terms.items():
            for v, mult in _multiplicities(mu):
                x = coef * mult
                if p is not None:
                    x %= p
                by_vertex.setdefault(v, {})[_remove_one(mu, v)] = x
        out.extend(by_vertex.values())
    return out


def is_level(soc: list[int], up_to: int) -> SequenceVerdict:
    """True when the socle vector ``soc`` (a ``StressSpaces.socle``) vanishes
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
    basis = StressSpaces(st, e).basis(i)
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

    base_basis = StressSpaces(delta, base).basis(i)
    cone_basis = StressSpaces(gamma, top).basis(i)
    projections = linalg.SparseRREF()
    for p in cone_basis:
        projections.insert({mu: q for mu, q in p.terms.items() if apex not in mu})
    lifted = []
    for p in base_basis:
        target = {}
        for mu, q in p.terms.items():
            scale = Fraction(1)
            for v in mu:
                scale /= b[v]
            target[mu] = q * scale
        lifted.append(not projections.reduce(target))
    return ConeLiftReport(apex, len(base_basis), len(cone_basis), tuple(lifted))


# ---------------------------------------------------------------------------
# Basis serialization
# ---------------------------------------------------------------------------

def basis_to_jsonable(c: SimplicialComplex, k: int, basis) -> dict:
    """The degree-k stresses ``basis`` of ``c`` (a ``StressSpaces.basis``)
    as exponent-vector to "p/q" maps, keys over the sorted vertex order."""
    order = list(c.vertices)
    out = []
    for p in basis:
        entry = {}
        for mu, coef in sorted(p.terms.items()):
            exps = [0] * len(order)
            for v in mu:
                exps[order.index(v)] += 1
            key = ",".join(str(x) for x in exps)
            entry[key] = f"{coef.numerator}/{coef.denominator}"
        out.append(entry)
    return {
        "degree": k,
        "dim": len(basis),
        "vertex_order": order,
        "basis": out,
    }
