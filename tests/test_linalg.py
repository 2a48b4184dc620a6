"""Unit tests for the exact sparse linear algebra layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from spherestress import linalg
from spherestress.linalg import (
    QQ,
    SparseRREF,
    bounded_rank,
    canonicalize,
    gf2_rank,
    kernel_basis,
    modp_rank,
    rank_of,
    solve_combination,
)


def as_rows(matrix):
    return [{j: QQ(x) for j, x in enumerate(row) if x} for row in matrix]


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
                assert sum(QQ(row[j]) * vec.get(j, QQ(0)) for j in range(3)) == 0

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
        vecs = [{0: QQ(2), 1: QQ(2)}, {0: QQ(1), 1: QQ(1), 2: QQ(1)}]
        out = canonicalize(vecs)
        assert out == [{0: QQ(1), 1: QQ(1)}, {2: QQ(1)}]

    def test_span_invariance(self):
        a = {0: QQ(1), 2: QQ(3)}
        b = {1: QQ(2), 2: QQ(-1)}
        combo = {k: a.get(k, QQ(0)) + b.get(k, QQ(0)) for k in set(a) | set(b)}
        assert canonicalize([a, b]) == canonicalize([combo, b])


class TestSolveCombination:
    def test_solvable(self):
        vectors = [{0: QQ(1), 1: QQ(1)}, {1: QQ(1), 2: QQ(1)}]
        target = {0: QQ(2), 1: QQ(3), 2: QQ(1)}
        coeffs = solve_combination(vectors, target)
        assert coeffs is not None
        recon = {}
        for c, v in zip(coeffs, vectors):
            for k, x in v.items():
                recon[k] = recon.get(k, QQ(0)) + c * x
        assert {k: v for k, v in recon.items() if v} == target

    def test_unsolvable(self):
        vectors = [{0: QQ(1)}, {1: QQ(1)}]
        assert solve_combination(vectors, {2: QQ(1)}) is None

    def test_dependent_vectors(self):
        vectors = [{0: QQ(1)}, {0: QQ(2)}]
        coeffs = solve_combination(vectors, {0: QQ(4)})
        assert coeffs is not None
        assert coeffs[0] + 2 * coeffs[1] == 4


class TestInsertInvariants:
    def test_pivot_rows_stay_reduced(self):
        rng = random.Random(1)
        rr = SparseRREF()
        for _ in range(40):
            row = {j: QQ(rng.randint(-3, 3)) for j in rng.sample(range(12), 4)}
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
        vec = {fc: QQ(1)}
        for ri, pc in enumerate(rr.pivot_cols):
            if rr.rows[ri].get(fc):
                vec[pc] = -rr.rows[ri][fc]
        raw.append(vec)
    return canonicalize(raw), rr.rank


small_rationals = hs.builds(Fraction, hs.integers(-3, 3), hs.integers(1, 4))
small_matrices = hs.integers(1, 5).flatmap(
    lambda ncols: hs.lists(hs.lists(small_rationals, min_size=ncols, max_size=ncols),
                           max_size=6))


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
        rows = [{0: QQ(Fraction(1, 3))}, {1: QQ(1)}]
        assert modp_rank(rows) is None
        assert bounded_rank(rows, 2) == 2
        assert kernel_basis(rows, range(3)) == [{2: QQ(1)}]

    def test_short_rank_mod_p_falls_back(self, monkeypatch):
        monkeypatch.setattr(linalg, "PRIME", 3)
        rows = as_rows([[1, 2], [2, 1]])  # determinant -3
        assert modp_rank(rows) == 1
        assert bounded_rank(rows, 2) == 2
        assert kernel_basis(rows, range(2)) == []
