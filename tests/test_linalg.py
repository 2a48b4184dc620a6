"""Unit tests for the exact sparse linear algebra layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from spherestress import linalg
from spherestress.linalg import (
    SparseRREF,
    gf2_pivots,
    gf2_rank,
    kernel_basis,
    modp_kernel,
    modp_rank,
    rank_of,
)


def as_rows(matrix):
    return [{j: Fraction(x) for j, x in enumerate(row) if x} for row in matrix]


small_rationals = hs.builds(Fraction, hs.integers(-3, 3), hs.integers(1, 4))
small_matrices = hs.integers(1, 5).flatmap(
    lambda ncols: hs.lists(hs.lists(small_rationals, min_size=ncols, max_size=ncols),
                           max_size=6))


class TestRankAndKernel:
    def test_rank(self):
        assert rank_of(as_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])) == 2
        assert rank_of(as_rows([[0, 0], [0, 0]])) == 0

    def test_kernel_matches_brute_force(self):
        m = [[1, 2, 3], [2, 4, 6]]
        basis = kernel_basis(as_rows(m), range(3))
        assert len(basis) == 2
        for vec in basis:
            for row in m:
                assert sum(Fraction(row[j]) * vec.get(j, Fraction(0)) for j in range(3)) == 0

    def test_kernel_basis_canonical_under_row_shuffle(self):
        rng = random.Random(0)
        m = [[1, 2, 0, 1], [0, 1, 1, 0], [1, 3, 1, 1]]
        reference = kernel_basis(as_rows(m), range(4))
        for _ in range(10):
            rows = as_rows(m)
            rng.shuffle(rows)
            assert kernel_basis(rows, range(4)) == reference

    def test_full_rank_kernel_empty(self):
        assert kernel_basis(as_rows([[1, 0], [1, 1]]), range(2)) == []


class TestKernelCanonical:
    def test_reduced_echelon(self):
        # the kernel of x0 = x1, x2 = x1 + x3 is {(a, a, a + b, b)}; with
        # leftmost pivots 0 and 2 its reduced basis is (1, 1, 0, -1), (0, 0, 1, 1)
        rows = [{0: Fraction(2), 1: Fraction(-2)},
                {1: Fraction(1), 2: Fraction(-1), 3: Fraction(1)}]
        assert kernel_basis(rows, range(4)) == [
            {0: Fraction(1), 1: Fraction(1), 3: Fraction(-1)},
            {2: Fraction(1), 3: Fraction(1)}]

    def test_span_invariance(self):
        a = {0: Fraction(1), 2: Fraction(3)}
        b = {1: Fraction(2), 2: Fraction(-1)}
        combo = {k: a.get(k, Fraction(0)) + b.get(k, Fraction(0)) for k in set(a) | set(b)}
        assert kernel_basis([a, b], range(4)) == kernel_basis([combo, b], range(4))


def leftmost_reference(vectors):
    """Reduced echelon basis of the span of ``vectors`` with leftmost
    pivots, listed by pivot: repeatedly pivot on the vector with the
    smallest leading column."""
    work = [dict(v) for v in vectors if v]
    done = []
    while work:
        vec = min(work, key=min)
        work.remove(vec)
        pc = min(vec)
        inv = 1 / Fraction(vec[pc])
        vec = {c: x * inv for c, x in vec.items()}
        for group in (work, done):
            for other in group:
                coef = other.get(pc)
                if not coef:
                    continue
                for c, x in vec.items():
                    nv = other.get(c, 0) - coef * x
                    if nv:
                        other[c] = nv
                    else:
                        other.pop(c, None)
        work = [v for v in work if v]
        done.append(vec)
    done.sort(key=min)
    return done


def some_kernel_basis(rows, ncols, rnd):
    """A kernel basis that owes nothing to SparseRREF: read off the
    leftmost reduced echelon form of the rows, then mixed by a random
    unitriangular change of basis."""
    echelon = leftmost_reference(rows)
    pivots = {min(r): r for r in echelon}
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = {fc: Fraction(1)}
        for pc, r in pivots.items():
            if r.get(fc):
                vec[pc] = -r[fc]
        basis.append(vec)
    for i in range(1, len(basis)):
        coef = Fraction(rnd.randint(-2, 2))
        for c, x in basis[i - 1].items():
            nv = basis[i].get(c, 0) + coef * x
            if nv:
                basis[i][c] = nv
            else:
                basis[i].pop(c, None)
    rnd.shuffle(basis)
    return basis


class TestKernelMatchesLeftmostLoop:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(small_matrices, hs.randoms(use_true_random=False))
    def test_equal_and_order_free(self, matrix, rnd):
        rows = as_rows(matrix)
        ncols = len(matrix[0]) if matrix else 3
        a, b = (rows[0], rows[-1]) if rows else ({}, {})
        total = {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}
        rows += [{}, {k: x for k, x in total.items() if x}]  # zero, and a + b
        expected = leftmost_reference(some_kernel_basis(rows, ncols, rnd))
        assert kernel_basis(rows, range(ncols)) == expected
        rnd.shuffle(rows)
        assert kernel_basis(rows, range(ncols)) == expected


class TestSpanMembership:
    def test_in_span(self):
        rr = SparseRREF()
        for v in ({0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}):
            rr.insert(v)
        assert rr.reduce({0: Fraction(2), 1: Fraction(3), 2: Fraction(1)}) == {}

    def test_not_in_span(self):
        rr = SparseRREF()
        for v in ({0: Fraction(1)}, {1: Fraction(1)}):
            rr.insert(v)
        assert rr.reduce({2: Fraction(1)}) == {2: Fraction(1)}
        assert rr.reduce({0: Fraction(5), 2: Fraction(1, 2)}) == {2: Fraction(1, 2)}

    def test_dependent_generators(self):
        rr = SparseRREF()
        assert rr.insert({0: Fraction(1)})
        assert not rr.insert({0: Fraction(2)})
        assert rr.rank == 1
        assert rr.reduce({0: Fraction(4)}) == {}
        assert rr.reduce({0: Fraction(4), 1: Fraction(1)}) == {1: Fraction(1)}


class TestInsertInvariants:
    def test_pivot_rows_stay_reduced(self):
        rng = random.Random(1)
        rr = SparseRREF()
        for _ in range(40):
            row = {j: Fraction(rng.randint(-3, 3)) for j in rng.sample(range(12), 4)}
            row = {j: x for j, x in row.items() if x}
            rr.insert(row)
        for i, row in enumerate(rr.rows):
            assert row[rr.pivot_cols[i]] == 1
            for other_pivot in rr.row_of_pivot:
                if other_pivot != rr.pivot_cols[i]:
                    assert other_pivot not in row

    def test_rows_end_at_their_pivots(self):
        rng = random.Random(2)
        for modulus in (None, 7):
            rr = SparseRREF(modulus)
            for _ in range(40):
                row = {j: rng.randint(1, 6) for j in rng.sample(range(12), 4)}
                rr.insert(row if modulus else {j: Fraction(x) for j, x in row.items()})
            assert rr.pivot_cols == [max(row) for row in rr.rows]


class TestGF2:
    def test_rank(self):
        assert gf2_rank([0b011, 0b110, 0b101]) == 2  # third row is the sum
        assert gf2_rank([0b1, 0b10, 0b100]) == 3
        assert gf2_rank([0, 0]) == 0

    def test_pivots_are_leading_bits(self):
        # 0b101 reduces to zero through 0b110 and then 0b011
        assert gf2_pivots([0b011, 0b110, 0b101]) == 0b110
        assert gf2_pivots([0b1000, 0b1001]) == 0b1001
        assert gf2_pivots([]) == 0


def plain_kernel(rows, columns):
    """Kernel basis from SparseRREF alone, without the mod-p certificate."""
    rr = SparseRREF()
    for r in rows:
        rr.insert(r)
    raw = []
    for fc in (c for c in columns if c not in rr.row_of_pivot):
        vec = {fc: Fraction(1)}
        for ri, pc in enumerate(rr.pivot_cols):
            if rr.rows[ri].get(fc):
                vec[pc] = -rr.rows[ri][fc]
        raw.append(vec)
    return leftmost_reference(raw), rr.rank



def mod_p(vec, p):
    return {c: x.numerator * pow(x.denominator, -1, p) % p for c, x in vec.items()}


class TestModpCertificates:
    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_agree_with_plain_elimination(self, matrix):
        rows = as_rows(matrix)
        ncols = len(matrix[0]) if matrix else 3
        kernel, rank = plain_kernel(rows, range(ncols))
        assert kernel_basis(rows, range(ncols)) == kernel
        # the minors of these small matrices are far below PRIME, so the
        # ranks agree and the canonical kernel mod p is the reduction of
        # the one over Q, read off by the same SparseRREF.kernel
        assert modp_rank(rows) == rank
        p = linalg.PRIME
        assert modp_kernel(rows, range(ncols)) == [mod_p(v, p) for v in kernel]

    def test_kernel_basis_eliminates_over_q_only(self, monkeypatch):
        moduli = []

        class Recording(SparseRREF):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                moduli.append(self.modulus)

        monkeypatch.setattr(linalg, "SparseRREF", Recording)
        rows = as_rows([[1, 2], [3, 4], [5, 6]])
        assert kernel_basis(rows, range(2)) == []
        assert modp_kernel(rows, range(2)) == []
        assert moduli == [None, linalg.PRIME]  # the mod-p check is the caller's

    def test_vanishing_denominator_has_no_certificate(self, monkeypatch):
        monkeypatch.setattr(linalg, "PRIME", 3)
        rows = [{0: Fraction(1, 3)}, {1: Fraction(1)}]
        assert modp_rank(rows) is None
        assert modp_kernel(rows, range(3)) is None
        assert kernel_basis(rows, range(3)) == [{2: Fraction(1)}]

    def test_short_rank_mod_p_falls_back(self, monkeypatch):
        monkeypatch.setattr(linalg, "PRIME", 3)
        rows = as_rows([[1, 2], [2, 1]])  # determinant -3
        assert modp_rank(rows) == 1
        assert modp_kernel(rows, range(2)) == [{0: 1, 1: 1}]  # only an upper bound
        assert kernel_basis(rows, range(2)) == []
