"""Property tests for the exact elimination, run when hypothesis is
installed."""

import pytest

pytest.importorskip("hypothesis")

from fractions import Fraction  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import sparse_rows, sparse_rref_oracle  # noqa: E402
from younglab.exactla import rank, rref  # noqa: E402

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
    before = rref(sparse_rows(entries))
    after = rref(sparse_rows(apply_row_operations(entries, ops)))
    assert list(after.items()) == list(before.items())


@settings(max_examples=200, deadline=None)
@given(matrix_and_row_operations())
def test_rref_of_int_entries_matches_rref_of_the_same_fractions(case):
    entries, _ = case
    as_fractions = [[Fraction(x) for x in row] for row in entries]
    red = rref(sparse_rows(entries))
    red_f = rref(sparse_rows(as_fractions))
    assert list(red.items()) == list(red_f.items())


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
    expected = list(sparse_rref_oracle(entries, cols).items())
    assert list(rref(sparse_rows(entries)).items()) == expected
    assert rank(sparse_rows(entries)) == len(expected)
    # shuffled keys, explicit zeros, Fraction entries, empty rows; the
    # strategy also draws the empty row list
    shuffled = sparse_rows(entries, rng)
    assert rank(shuffled) == len(expected)
    assert list(rref(shuffled).items()) == expected
    assert all(type(x) is int for row in rref(shuffled).values() for x in row.values())
