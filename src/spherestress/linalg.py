"""Exact sparse linear algebra over the rationals, GF(p) and GF(2).

Everything in this module is exact: rational rows are dicts mapping a
(hashable, orderable) column key to a nonzero ``fractions.Fraction``,
GF(p) rows map keys to ints in [0, p), and GF(2) rows are Python
integers used as bit masks.  ``SparseRREF.insert`` is the one
elimination loop over Q and GF(p), with one pivot rule: ranks, kernel
bases, span membership (an empty ``SparseRREF.reduce`` residual) and
the mod-p rank certificates below all go through it.  GF(2) has its
own bit-mask loop, ``gf2_pivots``; ``gf2_rank`` counts its pivots.

Certificates mod p.  ``modp_rank`` maps each rational entry a/b to
a * b^-1 mod PRIME (p = 2^61 - 1) and eliminates over GF(p); it is the
one rational-to-GF(p) conversion, and ``modp_kernel`` goes through it.
When no denominator vanishes mod p, every row can be scaled by a unit to
an integer row, and a nonzero minor mod p is a nonzero integer minor, so
rank_p <= rank_Q and the kernel mod p is at least as long as the kernel
over Q.  This module computes both and accepts neither.  The
stress module (``stress._stresses``) pairs the length of a kernel mod p
with a lower bound from theory, 0 or g_k, and keeps it when the two
meet; in every other case (a denominator divisible by p, or a kernel
mod p longer than the bound) the answer comes from ``kernel_basis``, a
plain elimination over Q.  Over Q and GF(p) alike, ``SparseRREF.kernel``
reads the canonical kernel basis off the free columns.
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

    The pivot is always the residual's largest column.  A stored row
    therefore ends at its pivot: eliminating a new pivot from it
    subtracts a row that ends at that pivot, a free column below its
    own.  So the stored rows are the unique reduced echelon basis of the
    span with columns read from the largest down, whatever the insertion
    order.  A column is then free exactly when, in the matrix of the
    inserted rows, it is a combination of the larger columns, that is,
    exactly when some kernel vector starts there.  The free columns are
    thus the pivots of the kernel's reduced echelon basis taken from the
    smallest column up, which ``kernel`` reads off the stored rows
    without a second elimination.
    """

    def __init__(self, modulus=None):
        self.modulus = modulus
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
        pc = max(res)
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

    def kernel(self, columns) -> list[dict]:
        """The canonical kernel basis of the inserted rows over
        ``columns``: each free column starts one vector, 1 there and
        minus the stored rows' entries at their pivots, listed by free
        column.  Over Q and over GF(p) alike."""
        p = self.modulus
        basis = []
        for fc in sorted(c for c in columns if c not in self.row_of_pivot):
            vec = {fc: Fraction(1) if p is None else 1}
            for ri in self._col_rows.get(fc, ()):
                x = -self.rows[ri][fc]
                vec[self.pivot_cols[ri]] = x if p is None else x % p
            basis.append(vec)
        return basis


def rank_of(vectors) -> int:
    """Exact rank of an iterable of sparse rational vectors."""
    rr = SparseRREF()
    for v in vectors:
        rr.insert(v)
    return rr.rank


def modp_rank(rows, rr=None):
    """Rank over GF(PRIME) of an iterable of sparse rational rows, a
    proven lower bound on their rank over Q; None (no certificate) when
    some denominator is divisible by PRIME.

    This is the one rational-to-GF(p) conversion: each entry a/b becomes
    a * b^-1 mod p.  A caller that wants more than the rank passes its
    own ``rr``, a ``SparseRREF`` over GF(PRIME), and reads it afterwards.
    """
    if rr is None:
        rr = SparseRREF(modulus=PRIME)
    p = rr.modulus
    inverses: dict = {}
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


def modp_kernel(rows, columns) -> list[dict] | None:
    """Canonical kernel basis over GF(PRIME) of the rational ``rows``
    over ``columns``, as ``kernel_basis`` reads it off over Q; None when
    some denominator is divisible by PRIME.  Its length is an upper
    bound on the dimension of the kernel over Q."""
    rr = SparseRREF(modulus=PRIME)
    if modp_rank(rows, rr) is None:
        return None
    return rr.kernel(columns)


def kernel_basis(rows, columns) -> list[dict]:
    """Exact kernel basis of the matrix made of ``rows`` over ``columns``.

    ``rows`` is an iterable of sparse vectors (dicts keyed by column),
    ``columns`` the full list of column keys, which must hold every key
    the rows use.  The result is the canonical kernel basis, reduced
    echelon with each vector's pivot at its smallest column and listed
    by pivot column, so it is independent of row order (see
    ``SparseRREF.kernel``).
    """
    rr = SparseRREF()
    for r in rows:
        rr.insert(r)
    return rr.kernel(columns)


def gf2_pivots(rows) -> int:
    """The leading bits of a GF(2) echelon basis of an iterable of
    integer bit masks, as one mask; its bit count is the rank.

    Each pivot is its row's highest bit, so a leading bit i marks a
    combination of the rows that is bit i plus lower bits only.
    """
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length()
            p = pivots.get(top)
            if p is None:
                pivots[top] = r
                break
            r ^= p
    return sum(1 << (top - 1) for top in pivots)


def gf2_rank(rows) -> int:
    """Rank over GF(2) of an iterable of integer bit masks."""
    return gf2_pivots(rows).bit_count()
