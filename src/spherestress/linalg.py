"""Exact sparse linear algebra over the rationals, GF(p) and GF(2).

Everything in this module is exact: rational rows are dicts mapping a
(hashable, orderable) column key to a nonzero rational, GF(2) rows are
Python integers used as bit masks.  Rational arithmetic uses gmpy2.mpq
when available and falls back to fractions.Fraction otherwise; results
are converted back to Fraction at the public boundaries of the package.

Rank certificates mod p.  ``modp_rank`` maps each rational entry a/b to
a * b^-1 mod PRIME (p = 2^61 - 1) and eliminates over GF(p).  When no
denominator vanishes mod p, every row can be scaled by a unit to an
integer row, and a nonzero minor mod p is a nonzero integer minor, so
rank_p <= rank_Q.  That one inequality is the whole certificate:
``kernel_basis`` returns the zero kernel without elimination over Q
when rank_p equals the column count, and ``bounded_rank`` returns b
without elimination over Q when the caller knows rank_Q <= b and
rank_p = b.  In every other case (a denominator divisible by p, or a
rank mod p short of the bound) the answer comes from elimination over Q.
"""

from __future__ import annotations

from fractions import Fraction

try:  # gmpy2 is optional; it speeds up rational elimination considerably
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover - exercised only without gmpy2
    QQ = Fraction

QQ0 = QQ(0)
QQ1 = QQ(1)

PRIME = 2 ** 61 - 1  # a Mersenne prime; read at call time by modp_rank


def to_fraction(x) -> Fraction:
    """Convert an internal rational (mpq or Fraction) to a Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(int(x.numerator), int(x.denominator))


class SparseRREF:
    """Incremental reduced row echelon form of a sparse rational matrix,
    or, given a prime ``modulus``, of a sparse matrix over GF(modulus)
    whose entries are ints in [0, modulus).

    Rows are inserted one at a time and the stored rows are kept fully
    reduced: every pivot entry is 1 and each pivot column is zero in all
    other stored rows.  Consequently a stored row has nonzero entries
    only in its own pivot column and in free columns, so when the
    accumulated matrix has a small kernel the fill-in stays small and
    insertion cost is roughly proportional to the input's sparsity.

    Pivot columns are chosen to minimize propagation (fewest stored rows
    touching the column, ties broken by column order), so the pivot set
    depends on insertion order; ranks do not, and kernel bases are made
    canonical afterwards by ``kernel_basis``.  Columns listed in
    ``forbid`` are never chosen as pivots.
    """

    def __init__(self, forbid=(), modulus=None):
        self.modulus = modulus
        self.rows: list[dict] = []
        self.pivot_cols: list = []      # pivot column of rows[i]
        self.row_of_pivot: dict = {}    # pivot column -> row index
        self.forbid = frozenset(forbid)
        self._col_rows: dict = {}       # column -> set of row indices using it

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Return the residual of ``vec`` after eliminating all pivots."""
        p = self.modulus
        if p is None:
            zero, v = QQ0, {c: QQ(x) for c, x in vec.items() if x}
        else:
            zero, v = 0, {c: x for c, x in vec.items() if x}
        hits = [c for c in v if c in self.row_of_pivot]
        for c in hits:
            coef = v.pop(c, zero)
            if not coef:
                continue
            row = self.rows[self.row_of_pivot[c]]
            for cc, val in row.items():
                if cc == c:
                    continue
                nv = v.get(cc, zero) - coef * val
                if p is not None:
                    nv %= p
                if nv:
                    v[cc] = nv
                else:
                    v.pop(cc, None)
        return v

    def insert(self, vec: dict) -> bool:
        """Insert a row; return True if it increased the rank.

        Raises Unreducible when the residual is supported only on
        forbidden columns (used by the linear solver).
        """
        res = self.reduce(vec)
        if not res:
            return False
        eligible = [c for c in res if c not in self.forbid] if self.forbid else res
        if not eligible:
            raise Unreducible(res)
        pc = min(eligible, key=lambda c: (len(self._col_rows.get(c, ())), c))
        p = self.modulus
        if p is None:
            zero, inv = QQ0, QQ1 / res[pc]
            new_row = {c: val * inv for c, val in res.items()}
        else:
            zero, inv = 0, pow(res[pc], -1, p)
            new_row = {c: val * inv % p for c, val in res.items()}
        idx = len(self.rows)
        # eliminate the new pivot column from all stored rows
        for ri in list(self._col_rows.get(pc, ())):
            row = self.rows[ri]
            coef = row.pop(pc)
            self._col_rows[pc].discard(ri)
            for cc, val in new_row.items():
                if cc == pc:
                    continue
                nv = row.get(cc, zero) - coef * val
                if p is not None:
                    nv %= p
                if nv:
                    if cc not in row:
                        self._col_rows.setdefault(cc, set()).add(ri)
                    row[cc] = nv
                else:
                    row.pop(cc, None)
                    self._col_rows.get(cc, set()).discard(ri)
        self.rows.append(new_row)
        self.pivot_cols.append(pc)
        self.row_of_pivot[pc] = idx
        for cc in new_row:
            self._col_rows.setdefault(cc, set()).add(idx)
        return True


class Unreducible(Exception):
    """A row reduced to a vector supported only on forbidden columns."""

    def __init__(self, residual):
        self.residual = residual
        super().__init__("row reduces onto forbidden columns only")


def rank_of(vectors) -> int:
    """Exact rank of an iterable of sparse rational vectors."""
    rr = SparseRREF()
    for v in vectors:
        rr.insert(v)
    return rr.rank


def modp_rank(rows):
    """Rank over GF(PRIME) of an iterable of sparse rational rows, a
    proven lower bound on their rank over Q; None (no certificate) when
    some denominator is divisible by PRIME."""
    p = PRIME
    inverses: dict = {}
    rr = SparseRREF(modulus=p)
    for row in rows:
        vec = {}
        for c, x in row.items():
            den = int(x.denominator)
            inv = inverses.get(den)
            if inv is None:
                if not den % p:
                    return None
                inv = inverses[den] = pow(den % p, -1, p)
            vec[c] = int(x.numerator) * inv % p
        rr.insert(vec)
    return rr.rank


def bounded_rank(vectors, bound: int) -> int:
    """Exact rank over Q of vectors whose rank is known to be at most
    ``bound``.

    A rank mod p equal to the bound proves the rank; a rank mod p above
    it proves the caller's bound wrong and raises ValueError.  Otherwise
    (no certificate, or a shorter rank mod p) the rank is computed over Q.
    """
    vectors = list(vectors)
    r = modp_rank(vectors)
    if r is not None:
        if r > bound:
            raise ValueError(f"rank mod p is {r}, above the claimed bound {bound}")
        if r == bound:
            return r
    return rank_of(vectors)


def canonicalize(vectors: list[dict]) -> list[dict]:
    """Reduced echelon form of a small family of sparse vectors, pivots
    taken leftmost; the result is the unique canonical basis of their
    span, listed by pivot column."""
    work = [dict(v) for v in vectors if v]
    done: list[dict] = []
    while work:
        vec = min(work, key=lambda v: min(v))
        work.remove(vec)
        pc = min(vec)
        inv = QQ1 / vec[pc]
        vec = {c: x * inv for c, x in vec.items()}
        for group in (work, done):
            for other in group:
                coef = other.get(pc)
                if not coef:
                    continue
                for c, x in vec.items():
                    nv = other.get(c, QQ0) - coef * x
                    if nv:
                        other[c] = nv
                    else:
                        other.pop(c, None)
        work = [v for v in work if v]
        done.append(vec)
    done.sort(key=lambda v: min(v))
    return done


def kernel_basis(rows, columns) -> list[dict]:
    """Exact kernel basis of the matrix made of ``rows`` over ``columns``.

    ``rows`` is an iterable of sparse vectors (dicts keyed by column),
    ``columns`` the full ordered list of column keys, which must hold
    every key the rows use.  The result is the canonical reduced-echelon
    basis of the kernel, so it is independent of row order and of pivot
    choices made during elimination.  A rank mod p equal to the column
    count certifies the zero kernel, with no elimination over Q.
    """
    rows = list(rows)
    if modp_rank(rows) == len(columns):
        return []
    rr = SparseRREF()
    for r in rows:
        rr.insert(r)
    free = [c for c in columns if c not in rr.row_of_pivot]
    raw = []
    for fc in free:
        vec = {fc: QQ1}
        for ri, pc in enumerate(rr.pivot_cols):
            val = rr.rows[ri].get(fc)
            if val:
                vec[pc] = -val
        raw.append(vec)
    return canonicalize(raw)


def solve_combination(vectors: list[dict], target: dict):
    """Solve ``sum_i c_i * vectors[i] == target`` exactly.

    Returns the list of coefficients (one per input vector, free ones
    set to 0) or None when the target is not in the span.
    """
    n = len(vectors)
    coords = set(target)
    for v in vectors:
        coords.update(v)
    rr = SparseRREF(forbid={n})
    for coord in sorted(coords):
        row = {i: v[coord] for i, v in enumerate(vectors) if coord in v}
        t = target.get(coord)
        if t:
            row[n] = t
        if not row:
            continue
        try:
            rr.insert(row)
        except Unreducible:
            return None  # inconsistent system
    coeffs = [QQ0] * n
    for ri, pc in enumerate(rr.pivot_cols):
        coeffs[pc] = rr.rows[ri].get(n, QQ0)
    return coeffs


def gf2_rank(rows) -> int:
    """Rank over GF(2) of an iterable of integer bit masks."""
    pivots: dict[int, int] = {}
    rank = 0
    for r in rows:
        while r:
            low = r & -r
            p = pivots.get(low)
            if p is None:
                pivots[low] = r
                rank += 1
                break
            r ^= p
    return rank
