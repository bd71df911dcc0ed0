"""Property tests for the exact elimination, run when hypothesis is
installed."""

import pytest

pytest.importorskip("hypothesis")

from fractions import Fraction  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import rref_oracle, sparse_rows  # noqa: E402
from younglab.exactla import RationalMatrix, rank, rref  # noqa: E402

SIZES = st.integers(min_value=1, max_value=6)


@st.composite
def matrix_and_row_operations(draw):
    rows, cols = draw(SIZES), draw(SIZES)
    entries = draw(st.lists(
        st.lists(st.integers(-5, 5), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ))
    ops = draw(st.lists(st.tuples(
        st.sampled_from(["swap", "scale", "add"]),
        st.integers(0, rows - 1),
        st.integers(0, rows - 1),
        st.integers(-4, 4).filter(bool),
    ), max_size=8))
    return entries, ops


def apply_row_operations(entries, ops):
    m = [list(row) for row in entries]
    for kind, i, j, c in ops:
        if kind == "swap":
            m[i], m[j] = m[j], m[i]
        elif kind == "scale":
            m[i] = [c * x for x in m[i]]
        elif i != j:
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


@settings(max_examples=200, deadline=None)
@given(matrix_and_row_operations())
def test_rref_is_invariant_under_invertible_row_operations(case):
    entries, ops = case
    cols = len(entries[0])
    before = rref(RationalMatrix(entries, cols=cols))
    after = rref(RationalMatrix(apply_row_operations(entries, ops), cols=cols))
    assert after == before


@settings(max_examples=200, deadline=None)
@given(matrix_and_row_operations())
def test_rref_of_int_entries_matches_rref_of_the_same_fractions(case):
    entries, _ = case
    cols = len(entries[0])
    as_fractions = [[Fraction(x) for x in row] for row in entries]
    red, rk, pivots = rref(RationalMatrix(entries, cols=cols))
    red_f, rk_f, pivots_f = rref(RationalMatrix(as_fractions, cols=cols))
    assert (red.entries, rk, pivots) == (red_f.entries, rk_f, pivots_f)


@st.composite
def sparse_matrix(draw):
    """A random 0/1 or small-integer matrix, mostly zeros."""
    rows, cols = draw(st.integers(0, 10)), draw(st.integers(1, 10))
    values = draw(st.sampled_from([st.just(1), st.integers(-3, 3)]))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), values)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows)), cols


@settings(max_examples=100, deadline=None)
@given(sparse_matrix(), st.randoms(use_true_random=False))
def test_rank_and_rref_of_sparse_matrices_match_the_oracle(case, rng):
    entries, cols = case
    a = RationalMatrix(entries, cols=cols)
    expected = rref_oracle(entries, cols)
    red, rk, pivots = rref(a)
    assert (red.entries, rk, pivots) == expected
    assert rank(sparse_rows(entries)) == expected[1]
    # shuffled keys, explicit zeros, Fraction entries, empty rows; the
    # strategy also draws the empty row list
    assert rank(sparse_rows(entries, rng)) == expected[1]
