"""Exact sparse linear algebra over the rationals, GF(p) and GF(2).

Everything in this module is exact: rational rows are dicts mapping a
(hashable, orderable) column key to a nonzero ``fractions.Fraction``,
GF(p) rows map keys to ints in [0, p), and GF(2) rows are Python
integers used as bit masks.  ``SparseRREF.insert`` is the one
elimination loop over Q and GF(p): ranks, kernel bases, the canonical
basis of a span (``canonicalize``), span membership (an empty
``SparseRREF.reduce`` residual) and the mod-p rank certificates below
all go through it.  ``gf2_rank`` keeps its own bit-mask loop.

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

QQ = Fraction  # the rational type; the benchmark reports it by this name

PRIME = 2 ** 61 - 1  # a Mersenne prime; read at call time by modp_rank


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
    depends on insertion order; ranks do not.  With ``leftmost`` the
    pivot is always the residual's smallest column instead.  Then every
    stored row starts at its pivot (a later pivot lies in a free column
    of the rows it is eliminated from, so above their pivots), and the
    stored rows are the unique reduced echelon basis of the span,
    whatever the insertion order; ``canonicalize`` relies on this.
    """

    def __init__(self, modulus=None, leftmost=False):
        self.modulus = modulus
        self.leftmost = leftmost
        self.rows: list[dict] = []
        self.pivot_cols: list = []      # pivot column of rows[i]
        self.row_of_pivot: dict = {}    # pivot column -> row index
        self._col_rows: dict = {}       # column -> set of row indices using it

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Return the residual of ``vec`` after eliminating all pivots;
        it is empty exactly when ``vec`` lies in the span of the rows."""
        p = self.modulus
        v = {c: x for c, x in vec.items() if x}
        # a stored row touches no other pivot column, so the pivot
        # entries of v never change while it is reduced
        for c in [c for c in v if c in self.row_of_pivot]:
            coef = v.pop(c)
            for cc, val in self.rows[self.row_of_pivot[c]].items():
                if cc == c:
                    continue
                nv = v.get(cc, 0) - coef * val
                if p is not None:
                    nv %= p
                if nv:
                    v[cc] = nv
                else:
                    del v[cc]
        return v

    def insert(self, vec: dict) -> bool:
        """Insert a row; return True if it increased the rank."""
        res = self.reduce(vec)
        if not res:
            return False
        if self.leftmost:
            pc = min(res)
        else:
            pc = min(res, key=lambda c: (len(self._col_rows.get(c, ())), c))
        p = self.modulus
        if p is None:
            inv = Fraction(1) / res[pc]
            new_row = {c: val * inv for c, val in res.items()}
        else:
            inv = pow(res[pc], -1, p)
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
                nv = row.get(cc, 0) - coef * val
                if p is not None:
                    nv %= p
                if nv:
                    if cc not in row:
                        self._col_rows.setdefault(cc, set()).add(ri)
                    row[cc] = nv
                else:
                    del row[cc]
                    self._col_rows[cc].discard(ri)
        self.rows.append(new_row)
        self.pivot_cols.append(pc)
        self.row_of_pivot[pc] = idx
        for cc in new_row:
            self._col_rows.setdefault(cc, set()).add(idx)
        return True


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
            den = x.denominator
            inv = inverses.get(den)
            if inv is None:
                if not den % p:
                    return None
                inv = inverses[den] = pow(den % p, -1, p)
            vec[c] = x.numerator * inv % p
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


def canonicalize(vectors) -> list[dict]:
    """Reduced echelon form of a family of sparse rational vectors,
    pivots taken leftmost; the result is the unique canonical basis of
    their span, listed by pivot column."""
    rr = SparseRREF(leftmost=True)
    for v in vectors:
        rr.insert(v)
    return sorted(rr.rows, key=min)


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
        vec = {fc: Fraction(1)}
        for ri, pc in enumerate(rr.pivot_cols):
            val = rr.rows[ri].get(fc)
            if val:
                vec[pc] = -val
        raw.append(vec)
    return canonicalize(raw)


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
