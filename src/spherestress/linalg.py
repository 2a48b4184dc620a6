"""Exact sparse linear algebra over the rationals, GF(p) and GF(2).

Everything in this module is exact: rational rows are dicts mapping a
(hashable, orderable) column key to a nonzero ``fractions.Fraction``,
GF(p) rows map keys to ints in [0, p), and GF(2) rows are Python
integers used as bit masks.  ``SparseRREF.insert`` is the one
elimination loop over Q and GF(p), with one pivot rule: ranks, kernel
bases, span membership (an empty ``SparseRREF.reduce`` residual) and
the mod-p rank certificates below all go through it.  GF(2) has its
own bit-mask loop, ``gf2_pivots``; ``gf2_rank`` counts its pivots.

Certificates mod p.  ``to_modp`` is the one rational-to-GF(p)
conversion: it maps each entry a/b of sparse rational rows to
a * b^-1 mod PRIME (p = 2^30 - 35), and refuses (returns None) when some
denominator is divisible by p.  ``modp_rank`` and ``modp_kernel`` take
rows that are already in GF(p).  A caller converts its data once, where
the denominators first appear, and builds its matrices mod p from the
converted values.  This is sound for any p: if every a/b of the data
has p not dividing b, every entry of a matrix built from the data by
integer polynomials is p-integral, and reduction mod p is a ring map on
p-integral rationals, so the matrix built from the converted values is
the entrywise reduction of the rational matrix.  Scaling each rational
row by the product of its denominators, a unit mod p, gives an integer
matrix of the same rank over Q whose reduction has the same rank mod p,
and a nonzero minor mod p of it is a nonzero integer minor: so
rank_p <= rank_Q, and the kernel mod p is at least as long as the
kernel over Q.  This module computes both and accepts neither; when a
kernel mod p is kept is decided in ``stress.StressSpaces``, and
``kernel_basis`` is a plain elimination over Q.  Since any p is sound,
a rank drop mod p (a nonzero minor over Q that p divides) costs only
time: the caller falls back to Q.  For coordinates that behave randomly
mod p it happens about rank/p of the time, near 10^-6 per matrix of
this package.  So PRIME is the largest prime below 2^30, CPython's int
digit: every residue and every pivot coefficient is a one-digit int,
and ``SparseRREF.reduce`` accumulates its products and reduces each
residual entry once.  Over Q and GF(p) alike, ``SparseRREF`` stores
each row under its pivot column, and ``SparseRREF.kernel`` reads the
canonical kernel basis off the free columns.
"""

from __future__ import annotations

from fractions import Fraction

QQ = Fraction  # the rational type; the benchmark reports it by this name

# the largest prime below 2^30, so a residue fits one CPython int digit
# (sys.int_info.bits_per_digit); read at call time by to_modp and modp_rank
PRIME = 2 ** 30 - 35


class SparseRREF:
    """Incremental reduced row echelon form of a sparse rational matrix,
    or, given a prime ``modulus``, of a sparse matrix over GF(modulus)
    whose entries are ints in [0, modulus).

    Rows are inserted one at a time and the stored rows are kept fully
    reduced: every pivot entry is 1 and each pivot column is zero in all
    other stored rows.  ``rows`` maps each pivot column to its stored
    row, so a row is found by its pivot, and ``_col_rows`` maps each
    column to the pivots of the rows that use it.  A stored row has
    nonzero entries only in its own pivot column and in free columns, so
    when the accumulated matrix has a small kernel the fill-in stays
    small and insertion cost is roughly proportional to the input's
    sparsity.

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
        self.rows: dict = {}        # pivot column -> its row
        self._col_rows: dict = {}   # column -> pivots of the rows using it

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> "SparseRREF":
        """An independent copy: inserting into either leaves the other
        as it was."""
        new = type(self)(self.modulus)
        new.rows = {c: dict(row) for c, row in self.rows.items()}
        new._col_rows = {c: set(pivots) for c, pivots in self._col_rows.items()}
        return new

    def reduce(self, vec: dict) -> dict:
        """Return the residual of ``vec`` after eliminating all pivots;
        it is empty exactly when ``vec`` lies in the span of the rows."""
        p = self.modulus
        v = {c: x for c, x in vec.items() if x}
        # a stored row touches no other pivot column, so the pivot
        # entries of v never change while it is reduced, and each free
        # entry can be reduced once, at the end
        for c in [c for c in v if c in self.rows]:
            coef = v.pop(c)
            for cc, val in self.rows[c].items():
                if cc != c:
                    v[cc] = v.get(cc, 0) - coef * val
        if p is None:
            return {c: x for c, x in v.items() if x}
        return {c: r for c, x in v.items() if (r := x % p)}

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
        # eliminate the new pivot column from all stored rows
        for other in list(self._col_rows.get(pc, ())):
            row = self.rows[other]
            coef = row.pop(pc)
            self._col_rows[pc].discard(other)
            for cc, val in new_row.items():
                if cc == pc:
                    continue
                nv = row.get(cc, 0) - coef * val
                if p is not None:
                    nv %= p
                if nv:
                    if cc not in row:
                        self._col_rows.setdefault(cc, set()).add(other)
                    row[cc] = nv
                else:
                    del row[cc]
                    self._col_rows[cc].discard(other)
        self.rows[pc] = new_row
        for cc in new_row:
            self._col_rows.setdefault(cc, set()).add(pc)
        return True

    def kernel(self, columns) -> list[dict]:
        """The canonical kernel basis of the inserted rows over
        ``columns``: each free column starts one vector, 1 there and
        minus the stored rows' entries at their pivots, listed by free
        column.  Over Q and over GF(p) alike."""
        p = self.modulus
        basis = []
        for fc in sorted(c for c in columns if c not in self.rows):
            vec = {fc: Fraction(1) if p is None else 1}
            for pc in self._col_rows.get(fc, ()):
                x = -self.rows[pc][fc]
                vec[pc] = x if p is None else x % p
            basis.append(vec)
        return basis


def rank_of(vectors) -> int:
    """Exact rank of an iterable of sparse rational vectors."""
    rr = SparseRREF()
    for v in vectors:
        rr.insert(v)
    return rr.rank


def to_modp(rows) -> list[dict] | None:
    """The entrywise images in GF(PRIME) of an iterable of sparse
    rational rows, each a/b as a * b^-1 mod PRIME and entries that
    vanish mod PRIME dropped; None when some denominator is divisible by
    PRIME.  This is the one rational-to-GF(p) conversion."""
    p = PRIME
    inverses: dict = {}
    out = []
    for row in rows:
        vec = {}
        for c, x in row.items():
            den = x.denominator
            inv = inverses.get(den)
            if inv is None:
                if not den % p:
                    return None
                inv = inverses[den] = pow(den, -1, p)
            y = x.numerator * inv % p
            if y:
                vec[c] = y
        out.append(vec)
    return out


def modp_rank(rows, stop: int | None = None) -> int:
    """Rank over GF(PRIME) of an iterable of rows over GF(PRIME) (ints in
    [0, PRIME)).  When the rows are the reduction of rational rows (see
    ``to_modp``), it is a proven lower bound on their rank over Q.

    With ``stop``, the rows are inserted only until the rank reaches
    it: the result is the rank when that is below ``stop``, and
    ``stop`` otherwise, with the remaining rows not inserted."""
    rr = SparseRREF(modulus=PRIME)
    for row in rows:
        if rr.rank == stop:
            break
        rr.insert(row)
    return rr.rank


def modp_kernel(rows, columns) -> list[dict]:
    """Canonical kernel basis over GF(PRIME) of ``rows`` over GF(PRIME)
    over ``columns``, as ``kernel_basis`` reads it off over Q.  When the
    rows are the reduction of rational rows, its length is an upper
    bound on the dimension of their kernel over Q."""
    rr = SparseRREF(modulus=PRIME)
    for row in rows:
        rr.insert(row)
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
