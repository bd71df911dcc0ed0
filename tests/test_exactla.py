import random
from fractions import Fraction
from functools import partial

import pytest

from oracles import rref_oracle, sparse_rows, sparse_rref_oracle
from younglab.errors import DimensionMismatchError, NotInvariantError
from younglab.exactla import (
    RationalMatrix,
    Subspace,
    _integral,
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


class TestIntegral:
    """`_integral`, the row copy every elimination starts from."""

    @pytest.mark.parametrize("row", [{}, {0: 1, 3: -2}, {0: 0, 2: 5, 4: 0}, {1: 0}])
    def test_an_int_row_is_copied_without_its_zeros(self, row):
        got = _integral(row)
        assert got == {j: x for j, x in row.items() if x}
        assert all(type(x) is int for x in got.values())

    def test_a_fresh_dict_comes_back(self):
        for row in ({0: 1, 2: 3}, {0: 1, 2: 0}, {0: Fraction(1, 2), 1: 1}):
            before = dict(row)
            got = _integral(row)
            assert got is not row
            got[99] = 7
            got.pop(0)
            assert row == before

    @pytest.mark.parametrize("row, expected", [
        ({0: True, 1: False, 2: 3}, {0: 1, 2: 3}),
        ({0: Fraction(4), 1: Fraction(0)}, {0: 4}),
        ({0: Fraction(1, 2), 1: Fraction(-2, 3), 2: 0}, {0: 3, 1: -4}),
        ({0: 2, 1: Fraction(1, 3)}, {0: 6, 1: 1}),
    ])
    def test_a_bool_or_fraction_row_is_cleared_to_ints(self, row, expected):
        got = _integral(row)
        assert got == expected
        assert all(type(x) is int for x in got.values())


def ordered(reduced):
    """The pivot columns and rows of a reduced form, in their order."""
    return list(reduced.items())


class TestRref:
    def test_identity_fixed(self):
        eye = sparse_rows(RationalMatrix.identity(4).entries)
        red = rref(eye)
        assert list(red.values()) == eye and list(red) == [0, 1, 2, 3]

    def test_zero_fixed(self):
        assert rref(sparse_rows([[0, 0]] * 3)) == {}
        assert rref([{0: 0, 1: 0}] * 3) == {}

    def test_dependent_rows(self):
        assert len(rref(sparse_rows([[1, 2], [2, 4]]))) == 1

    def test_rows_are_primitive_ints_with_positive_pivots(self):
        # the pivot-1 rows are {0: 1, 3: -3/4} and {1: 1, 3: 3/2}
        red = rref([{1: 2, 3: 3}, {0: 4, 1: 2}])
        assert ordered(red) == [(0, {0: 4, 3: -3}), (1, {1: 2, 3: 3})]
        assert ordered(rref([{0: -6, 2: 4}, {1: Fraction(-1, 3)}])) == [
            (0, {0: 3, 2: -2}), (1, {1: 1})]
        assert all(type(x) is int for row in red.values() for x in row.values())

    def test_idempotent_on_random(self):
        rng = random.Random(7)
        for _ in range(25):
            a = random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            red = rref(sparse_rows(a.entries))
            again = rref(list(red.values()))
            assert ordered(again) == ordered(red)

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
                red = rref(sparse_rows(a.entries))
                assert ordered(red) == ordered(sparse_rref_oracle(a.entries, a.cols)), make
                assert all(type(x) is int for row in red.values() for x in row.values()), make
                assert rank(sparse_rows(a.entries)) == len(red), make

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
            expected = sparse_rref_oracle(a.entries, a.cols)
            assert ordered(rref(sparse_rows(a.entries))) == ordered(expected)
            assert rank(sparse_rows(a.entries)) == len(expected)
            # shuffled keys, explicit zeros, Fraction entries, empty rows
            shuffled = sparse_rows(a.entries, rng)
            assert rank(shuffled) == len(expected)
            assert ordered(rref(shuffled)) == ordered(expected)
        assert rank([]) == rank([{}, {0: 0}]) == rref_oracle([], 1)[1]
        assert rref([]) == rref([{}, {0: 0}]) == {}


def times(a, v):
    """a times the sparse vector v."""
    return [sum(row[j] * x for j, x in v.items()) for row in a.entries]


class TestKernelSolve:
    def test_kernel_of_identity_is_trivial(self):
        assert kernel(RationalMatrix.identity(5)).dim == 0

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(3)
        for _ in range(25):
            a = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            ker = kernel(a)
            for v in ker.rows:
                assert all(x == 0 for x in times(a, v))
                assert all(type(x) is int for x in v.values())

    def test_member_matches_kernel_equation(self):
        rng = random.Random(9)
        for _ in range(25):
            a = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            ker = kernel(a)
            v = dict(enumerate(rng.randint(-3, 3) for _ in range(a.cols)))
            in_kernel = all(x == 0 for x in times(a, v))
            assert (v in ker) == in_kernel
            assert ({j: Fraction(x, 3) for j, x in v.items()} in ker) == in_kernel

    def test_dimension_mismatch(self):
        line = Subspace(3, [{0: 1, 1: 2, 2: 3}])
        for column in (-1, 3, 4):
            with pytest.raises(DimensionMismatchError):
                {column: 1} in line


class TestSubspace:
    def test_canonical_equality(self):
        s1 = Subspace(3, [{0: 1, 1: 1}, {2: 1}])
        s2 = Subspace(3, [{0: 2, 1: 2, 2: 2}, {2: 5}, {0: 1, 1: 1, 2: 1}])
        assert s1 == s2 and s1.dim == 2
        assert hash(s1) == hash(s2)
        assert s1 != Subspace(3, [{0: 1}, {2: 1}]) and s1 != Subspace(4, [{0: 1, 1: 1}, {2: 1}])

    def test_keeps_the_sparse_rref_rows(self):
        s = Subspace(4, [{3: 2, 1: 4}, {0: 0}, {}, {1: 1, 3: Fraction(1, 2)}])
        assert s.rows == ({1: 2, 3: 1},) and s.pivots == (1,)

    def test_equal_spans_are_equal_and_hash_equal(self):
        # reordered, negated, scaled and Fraction spanning rows of one span
        rng = random.Random(5)
        for _ in range(40):
            d = rng.randint(1, 6)
            a = random_low_rank_matrix(rng, rng.randint(1, 5), d)
            rows = sparse_rows(a.entries)
            s = Subspace(d, rows)
            variants = [
                rows[::-1],
                [{j: -x for j, x in row.items()} for row in rows],
                [{j: 6 * x for j, x in row.items()} for row in rows],
                [{j: Fraction(x, 7) for j, x in row.items()} for row in rows],
                sparse_rows(a.entries, rng),
            ]
            for other in map(partial(Subspace, d), variants):
                assert other == s and hash(other) == hash(s)

    def test_membership(self):
        plane = Subspace(3, [{0: 2, 1: 1}, {2: 3}])
        assert {0: 4, 1: 2, 2: -1} in plane and {} in plane and {1: 0} in plane
        assert {0: 1} not in plane and {1: 1, 2: 1} not in plane

    def test_dense_rows_give_the_same_subspace(self):
        assert Subspace(3, [[1, 1, 0], [0, 0, 1]]) == Subspace(3, [{0: 1, 1: 1}, {2: 1}])
        assert Subspace(2, [[1, 0]]).rows == ({0: 1},)

    @pytest.mark.parametrize("row", [{-1: 1}, {0: 1, 3: 1}, {4: 0}, [1, 2], [1, 2, 3, 4]])
    def test_rows_outside_the_ambient_raise(self, row):
        with pytest.raises(DimensionMismatchError):
            Subspace(3, [{0: 1}, row])


class TestRestrictedTrace:
    def test_full_basis_gives_trace(self):
        a = RationalMatrix([[2, 1, 0], [0, 3, 0], [1, 0, 5]])
        full = Subspace(3, sparse_rows(RationalMatrix.identity(3).entries))
        assert restricted_trace(a, full) == 10

    def test_identity_gives_dimension(self):
        sub = Subspace(4, [{0: 1, 1: 1}, {2: 1, 3: -1}])
        assert restricted_trace(RationalMatrix.identity(4), sub) == 2

    def test_permutation_on_fixed_line(self):
        # cyclic shift of Q^3 restricted to the all-ones line
        shift = RationalMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        line = Subspace(3, [{0: 1, 1: 1, 2: 1}])
        assert restricted_trace(shift, line) == 1

    def test_not_invariant_raises(self):
        shift = RationalMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        bad = Subspace(3, [{0: 1}])
        with pytest.raises(NotInvariantError):
            restricted_trace(shift, bad)
