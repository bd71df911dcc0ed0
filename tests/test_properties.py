"""Property tests for partitions, dominance, tableaux and the Theorem-4
certificates, run when hypothesis is installed."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from younglab.partitions import (  # noqa: E402
    conjugate,
    dominates,
    enumerate_partitions,
    format_partition,
    parse_partition,
)
from younglab.tableaux import (  # noqa: E402
    enumerate_ssyt,
    format_tableau,
    kostka,
    theorem4_bijection,
)

from oracles import parse_tableau  # noqa: E402


def partitions(min_size=0, max_size=12):
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.sampled_from(enumerate_partitions(n))
    )


@given(partitions())
def test_partition_text_round_trip(lam):
    text = format_partition(lam)
    assert parse_partition(text) == lam
    assert format_partition(parse_partition(text)) == text


@given(partitions())
def test_conjugate_is_an_involution(lam):
    assert sum(conjugate(lam)) == sum(lam)
    assert conjugate(conjugate(lam)) == lam


@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(*[st.sampled_from(enumerate_partitions(n))] * 3)
))
def test_dominance_is_a_partial_order(triple):
    a, b, c = triple
    assert dominates(a, a)
    if dominates(a, b) and dominates(b, a):
        assert a == b
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


@st.composite
def shape_and_weight(draw, max_size=8):
    shape = draw(partitions(1, max_size))
    # a composition of |shape|, zeros allowed
    cuts = sorted(draw(st.lists(st.integers(0, sum(shape)), max_size=5)))
    bounds = [0, *cuts, sum(shape)]
    return shape, tuple(b - a for a, b in zip(bounds, bounds[1:]))


@given(shape_and_weight(), st.data())
def test_tableau_text_round_trip(pair, data):
    tableaux = enumerate_ssyt(*pair)
    assume(tableaux)
    t = data.draw(st.sampled_from(tableaux))
    text = format_tableau(t)
    assert parse_tableau(text) == t
    assert format_tableau(parse_tableau(text)) == text


@given(shape_and_weight(), st.data())
def test_kostka_is_invariant_under_permuting_the_weight(pair, data):
    shape, weight = pair
    permuted = tuple(data.draw(st.permutations(weight)))
    assert kostka(shape, permuted) == kostka(shape, weight)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.sampled_from(enumerate_partitions(n)),
    st.sampled_from(enumerate_partitions(n - 1)),
)))
def test_bijection_certificate_checks(pair):
    assert theorem4_bijection(*pair).check()
