"""Unit tests for the exact sparse linear algebra layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from spherestress import linalg
from spherestress.linalg import (
    SparseRREF,
    bounded_rank,
    canonicalize,
    gf2_rank,
    kernel_basis,
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


class TestCanonicalize:
    def test_reduced_echelon(self):
        vecs = [{0: Fraction(2), 1: Fraction(2)},
                {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}]
        out = canonicalize(vecs)
        assert out == [{0: Fraction(1), 1: Fraction(1)}, {2: Fraction(1)}]

    def test_span_invariance(self):
        a = {0: Fraction(1), 2: Fraction(3)}
        b = {1: Fraction(2), 2: Fraction(-1)}
        combo = {k: a.get(k, Fraction(0)) + b.get(k, Fraction(0)) for k in set(a) | set(b)}
        assert canonicalize([a, b]) == canonicalize([combo, b])


def leftmost_reference(vectors):
    """The leftmost-pivot elimination loop ``canonicalize`` replaced:
    repeatedly pivot on the vector with the smallest leading column."""
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


class TestCanonicalizeMatchesLeftmostLoop:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(small_matrices, hs.randoms(use_true_random=False))
    def test_equal_and_order_free(self, matrix, rnd):
        vectors = as_rows(matrix)
        a, b = (vectors[0], vectors[-1]) if vectors else ({}, {})
        total = {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}
        vectors += [{}, {k: x for k, x in total.items() if x}]  # zero, and a + b
        expected = leftmost_reference(vectors)
        assert canonicalize(vectors) == expected
        rnd.shuffle(vectors)
        assert canonicalize(vectors) == expected


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


class TestGF2:
    def test_rank(self):
        assert gf2_rank([0b011, 0b110, 0b101]) == 2  # third row is the sum
        assert gf2_rank([0b1, 0b10, 0b100]) == 3
        assert gf2_rank([0, 0]) == 0


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
    return canonicalize(raw), rr.rank



class TestModpCertificates:
    @settings(max_examples=150, deadline=None)
    @given(small_matrices, hs.integers(0, 3))
    def test_agree_with_plain_elimination(self, matrix, slack):
        rows = as_rows(matrix)
        ncols = len(matrix[0]) if matrix else 3
        kernel, rank = plain_kernel(rows, range(ncols))
        assert kernel_basis(rows, range(ncols)) == kernel
        assert bounded_rank(rows, rank + slack) == rank
        r = modp_rank(rows)
        assert r is None or r <= rank

    def test_full_column_rank_mod_p_skips_elimination(self, monkeypatch):
        moduli = []

        class Recording(SparseRREF):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                moduli.append(self.modulus)

        monkeypatch.setattr(linalg, "SparseRREF", Recording)
        rows = as_rows([[1, 2], [3, 4], [5, 6]])
        assert kernel_basis(rows, range(2)) == []
        assert bounded_rank(rows, 2) == 2
        assert moduli == [linalg.PRIME, linalg.PRIME]  # no elimination over Q

    def test_bound_too_small_raises(self):
        rows = as_rows([[1, 0, 0], [0, 1, 0], [1, 1, 1]])
        assert bounded_rank(rows, 3) == 3
        with pytest.raises(ValueError, match="above the claimed bound"):
            bounded_rank(rows, 2)

    def test_vanishing_denominator_has_no_certificate(self, monkeypatch):
        monkeypatch.setattr(linalg, "PRIME", 3)
        rows = [{0: Fraction(1, 3)}, {1: Fraction(1)}]
        assert modp_rank(rows) is None
        assert bounded_rank(rows, 2) == 2
        assert kernel_basis(rows, range(3)) == [{2: Fraction(1)}]

    def test_short_rank_mod_p_falls_back(self, monkeypatch):
        monkeypatch.setattr(linalg, "PRIME", 3)
        rows = as_rows([[1, 2], [2, 1]])  # determinant -3
        assert modp_rank(rows) == 1
        assert bounded_rank(rows, 2) == 2
        assert kernel_basis(rows, range(2)) == []
