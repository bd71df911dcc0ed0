"""Property tests for the exact elimination, run when hypothesis is
installed."""

import pytest

pytest.importorskip("hypothesis")

from fractions import Fraction  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402

from younglab.exactla import RationalMatrix, rref  # noqa: E402

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
