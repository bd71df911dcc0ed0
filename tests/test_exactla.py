import random
from fractions import Fraction

import pytest

from oracles import rref_oracle, sparse_rows
from younglab.errors import DimensionMismatchError, NotInvariantError
from younglab.exactla import (
    RationalMatrix,
    Subspace,
    kernel,
    rank,
    restricted_trace,
    rref,
)


def random_int_matrix(rng, rows, cols, lo=-5, hi=5):
    return RationalMatrix(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def random_low_rank_matrix(rng, rows, cols):
    k = rng.randint(0, min(rows, cols))
    left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
    right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
    return RationalMatrix(
        [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)]
         for i in range(rows)],
        cols=cols,
    )


def random_sparse_01_matrix(rng, rows, cols):
    return RationalMatrix(
        [[int(rng.random() < 0.25) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def random_fraction_matrix(rng, rows, cols):
    return RationalMatrix(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(cols)]
         for _ in range(rows)],
        cols=cols,
    )


class TestRepresentation:
    def test_int_entries_are_kept(self):
        a = RationalMatrix([[1, 2], [3, 4]])
        assert all(type(x) is int for row in a.entries for x in row)


class TestRref:
    def test_identity_fixed(self):
        eye = RationalMatrix.identity(4)
        red, rk, pivots = rref(eye)
        assert red == eye and rk == 4 and pivots == [0, 1, 2, 3]

    def test_zero_fixed(self):
        z = RationalMatrix([[0, 0]] * 3)
        red, rk, pivots = rref(z)
        assert red == z and rk == 0 and pivots == []

    def test_dependent_rows(self):
        a = RationalMatrix([[1, 2], [2, 4]])
        _, rk, _ = rref(a)
        assert rk == 1

    def test_idempotent_on_random(self):
        rng = random.Random(7)
        for _ in range(25):
            a = random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            red, _, _ = rref(a)
            again, _, _ = rref(red)
            assert again == red

    def test_rank_nullity(self):
        rng = random.Random(11)
        for _ in range(25):
            a = random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert rank(sparse_rows(a.entries)) + kernel(a).dim == a.cols

    def test_agrees_with_gauss_jordan_oracle(self):
        rng = random.Random(13)
        makers = [
            random_int_matrix,
            random_low_rank_matrix,
            random_sparse_01_matrix,
            random_fraction_matrix,
        ]
        for make in makers:
            for _ in range(100):
                a = make(rng, rng.randint(0, 8), rng.randint(1, 8))
                red, rk, pivots = rref(a)
                assert (red.entries, rk, pivots) == rref_oracle(a.entries, a.cols), make
                assert rank(sparse_rows(a.entries)) == rk, make

    @pytest.mark.parametrize("density", [0.03, 0.14, 0.3])
    def test_sparse_rank_and_rref_agree_with_oracle(self, density):
        # the sizes and densities of the library's inputs: 0/1 deviation
        # systems, derivative matrices with small integer entries
        rng = random.Random(int(density * 100))
        for _ in range(40):
            rows, cols = rng.randint(1, 24), rng.randint(1, 24)
            a = RationalMatrix(
                [[rng.choice((1, 1, -1, 2, -3)) if rng.random() < density else 0
                  for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            expected = rref_oracle(a.entries, a.cols)
            red, rk, pivots = rref(a)
            assert (red.entries, rk, pivots) == expected
            assert rank(sparse_rows(a.entries)) == expected[1]
            # shuffled keys, explicit zeros, Fraction entries, empty rows
            assert rank(sparse_rows(a.entries, rng)) == expected[1]
        assert rank([]) == rank([{}, {0: 0}]) == rref_oracle([], 1)[1]


class TestKernelSolve:
    def test_kernel_of_identity_is_trivial(self):
        assert kernel(RationalMatrix.identity(5)).dim == 0

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(3)
        for _ in range(25):
            a = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            ker = kernel(a)
            for v in ker.basis.entries:
                assert all(x == 0 for x in a.matvec(v))

    def test_member_matches_kernel_equation(self):
        rng = random.Random(9)
        for _ in range(25):
            a = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            ker = kernel(a)
            v = [rng.randint(-3, 3) for _ in range(a.cols)]
            in_kernel = all(x == 0 for x in a.matvec(v))
            assert (ker.coordinates(v) is not None) == in_kernel

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Subspace(3, [[1, 2, 3]]).coordinates([1, 2])


class TestSubspace:
    def test_canonical_equality(self):
        s1 = Subspace(3, [[1, 1, 0], [0, 0, 1]])
        s2 = Subspace(3, [[2, 2, 2], [0, 0, 5], [1, 1, 1]])
        assert s1 == s2 and s1.dim == 2


class TestRestrictedTrace:
    def test_full_basis_gives_trace(self):
        a = RationalMatrix([[2, 1, 0], [0, 3, 0], [1, 0, 5]])
        full = Subspace(3, RationalMatrix.identity(3).entries)
        assert restricted_trace(a, full) == 10

    def test_identity_gives_dimension(self):
        sub = Subspace(4, [[1, 1, 0, 0], [0, 0, 1, -1]])
        assert restricted_trace(RationalMatrix.identity(4), sub) == 2

    def test_permutation_on_fixed_line(self):
        # cyclic shift of Q^3 restricted to the all-ones line
        shift = RationalMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        line = Subspace(3, [[1, 1, 1]])
        assert restricted_trace(shift, line) == 1

    def test_not_invariant_raises(self):
        shift = RationalMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        bad = Subspace(3, [[1, 0, 0]])
        with pytest.raises(NotInvariantError):
            restricted_trace(shift, bad)
