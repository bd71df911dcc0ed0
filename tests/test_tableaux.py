from dataclasses import replace
from itertools import permutations

import pytest

from younglab import tableaux
from younglab.errors import LimitError, SelfCheckError, SizeMismatchError
from younglab.partitions import (
    dominates,
    enumerate_partitions,
    standard_count,
    successors,
)
from younglab.tableaux import (
    enumerate_ssyt,
    enumerate_standard,
    eq2_check,
    format_tableau,
    is_semistandard,
    kostka,
    parse_tableau,
    strip_weight,
    tableau_shape,
    tableau_weight,
    theorem4_bijection,
)


class TestEnumerateSsyt:
    def test_shape_42_weight_321(self):
        got = enumerate_ssyt((4, 2), (3, 2, 1))
        assert got == [
            ((1, 1, 1, 2), (2, 3)),
            ((1, 1, 1, 3), (2, 2)),
        ]

    def test_shape_31_weight_121(self):
        got = enumerate_ssyt((3, 1), (1, 2, 1))
        assert got == [
            ((1, 2, 2), (3,)),
            ((1, 2, 3), (2,)),
        ]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_weight_equal_shape_gives_superstandard(self, n):
        for lam in enumerate_partitions(n):
            got = enumerate_ssyt(lam, lam)
            assert len(got) == 1
            assert got[0] == tuple((i + 1,) * lam[i] for i in range(len(lam)))

    def test_all_outputs_semistandard_with_right_data(self):
        for lam in enumerate_partitions(6):
            for w in enumerate_partitions(6):
                for t in enumerate_ssyt(lam, w):
                    assert is_semistandard(t)
                    assert tableau_shape(t) == lam
                    assert strip_weight(tableau_weight(t)) == w

    def test_reading_word_order(self):
        for lam in enumerate_partitions(6):
            for w in enumerate_partitions(6):
                words = [
                    tuple(x for row in t for x in row)
                    for t in enumerate_ssyt(lam, w)
                ]
                assert words == sorted(words)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            enumerate_ssyt((3, 1), (1, 1, 1))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            enumerate_ssyt((2, 1), (4, -1))

    def test_weight_with_internal_zeros(self):
        got = enumerate_ssyt((2, 1), (1, 0, 1, 1))
        assert got == [((1, 3), (4,)), ((1, 4), (3,))]


class TestKostka:
    def test_known_values(self):
        assert kostka((5, 1), (3, 2, 1)) == 2
        assert kostka((3, 1, 1), (2, 2, 1)) == 1
        assert kostka((4, 2), (3, 2, 1)) == 2
        assert kostka((3, 1), (2, 1, 1)) == 2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_positive_iff_dominates(self, n):
        for mu in enumerate_partitions(n):
            for lam in enumerate_partitions(n):
                assert (kostka(mu, lam) > 0) == dominates(mu, lam)
                if mu == lam:
                    assert kostka(mu, lam) == 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_invariant_under_weight_permutation(self, n):
        for mu in enumerate_partitions(n):
            for lam in enumerate_partitions(n):
                base = kostka(mu, lam)
                seen = {tuple(w) for w in permutations(lam)}
                for w in seen:
                    assert kostka(mu, w) == base

    def test_column_weight_counts_standard_tableaux(self):
        for lam in enumerate_partitions(6):
            assert kostka(lam, (1,) * 6) == standard_count(lam)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_matches_enumeration_on_weak_compositions(self, n):
        # n + 1 parts, so every w has a zero, in the middle or at the end
        for mu in enumerate_partitions(n):
            for w in weak_compositions(n, n + 1):
                assert kostka(mu, w) == len(enumerate_ssyt(mu, w))

    @pytest.mark.parametrize("shape, weight, exc", [
        ((1, 2), (2, 1), ValueError),
        ((2, 1), (4, -1), ValueError),
        ((3, 1), (1, 1, 1), SizeMismatchError),
        ((1, 2), (1,), ValueError),  # shape checked before size
        ((2, 1), (4, -2), ValueError),  # counts checked before size
    ])
    def test_errors_match_enumeration(self, shape, weight, exc):
        with pytest.raises(exc) as from_count:
            kostka(shape, weight)
        with pytest.raises(exc) as from_list:
            enumerate_ssyt(shape, weight)
        assert from_count.type is from_list.type

    def test_size_cap_checked_before_work(self, monkeypatch):
        monkeypatch.setenv("YOUNGLAB_MAX_N", "5")
        kostka.cache_clear()  # the cap is checked on a cache miss
        for route in (kostka, enumerate_ssyt):
            with pytest.raises(LimitError):
                route((6,), (1,) * 6)
        assert kostka((5,), (1,) * 5) == 1


def weak_compositions(n, parts):
    """All tuples of `parts` nonnegative integers summing to n."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in weak_compositions(n - first, parts - 1):
            yield (first,) + rest


class TestCornerRemoval:
    def test_removing_any_corner_keeps_semistandard(self):
        for lam in enumerate_partitions(6):
            for w in enumerate_partitions(6):
                for t in enumerate_ssyt(lam, w):
                    for i, row in enumerate(t):
                        below = len(t[i + 1]) if i + 1 < len(t) else 0
                        if len(row) > below:
                            rows = list(t)
                            short = row[:-1]
                            if short:
                                rows[i] = short
                            else:
                                rows.pop(i)
                            assert is_semistandard(tuple(rows))


class TestEq2:
    def test_example_n6(self):
        assert eq2_check((3, 2, 1), (4, 1)) == (5, 5)

    def test_example_n5_with_breakdown(self):
        assert eq2_check((2, 2, 1), (3, 1)) == (5, 5)
        left = [kostka(mu, (2, 2, 1)) for mu in successors((3, 1))]
        assert left == [2, 2, 1]
        assert 2 * kostka((3, 1), (2, 1, 1)) + 1 * kostka((3, 1), (2, 2)) == 5

    @pytest.mark.parametrize("n", range(2, 9))
    def test_column_case_reduces_to_dimension_recurrence(self, n):
        lam = (1,) * n
        for rho in enumerate_partitions(n - 1):
            left, right = eq2_check(lam, rho)
            assert left == right == n * standard_count(rho)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_holds_for_all_pairs(self, n):
        for lam in enumerate_partitions(n):
            for rho in enumerate_partitions(n - 1):
                left, right = eq2_check(lam, rho)
                assert left == right

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            eq2_check((3, 1), (3, 1))


GOLDEN_EX1 = {
    # n = 6, lam = (3,2,1), rho = (4,1): pairs A..E -> L..Q
    "lam": (3, 2, 1),
    "rho": (4, 1),
    "pairs": [
        ("1,1,1,2,2/3", 1, "1,1,2,2/3", (2, 2, 1)),
        ("1,1,1,2,3/2", 1, "1,1,2,3/2", (2, 2, 1)),
        ("1,1,1,2/2,3", 2, "1,1,1,2/3", (3, 1, 1)),
        ("1,1,1,3/2,2", 2, "1,1,1,3/2", (3, 1, 1)),
        ("1,1,1,2/2/3", 3, "1,1,1,2/2", (3, 2)),
    ],
}

GOLDEN_EX2 = {
    # n = 5, lam = (2,2,1), rho = (3,1): pairs A..E -> L..Q
    "lam": (2, 2, 1),
    "rho": (3, 1),
    "pairs": [
        ("1,1,2,2/3", 1, "1,2,2/3", (1, 2, 1)),
        ("1,1,2,3/2", 1, "1,2,3/2", (1, 2, 1)),
        ("1,1,2/2,3", 2, "1,1,2/3", (2, 1, 1)),
        ("1,1,3/2,2", 2, "1,1,3/2", (2, 1, 1)),
        ("1,1,2/2/3", 3, "1,1,2/2", (2, 2)),
    ],
}


class TestBijection:
    @pytest.mark.parametrize("golden", [GOLDEN_EX1, GOLDEN_EX2])
    def test_golden_examples(self, golden):
        cert = theorem4_bijection(golden["lam"], golden["rho"])
        assert cert.canonical
        assert cert.check()
        got = [
            (format_tableau(p.mu_tableau), p.removed_symbol,
             format_tableau(p.rho_tableau), p.gamma_weight)
            for p in cert.pairs
        ]
        assert got == golden["pairs"]

    def test_single_pair(self):
        cert = theorem4_bijection((2,), (1,))
        assert len(cert.pairs) == 1
        pair = cert.pairs[0]
        assert pair.mu_tableau == ((1, 1),)
        assert pair.rho_tableau == ((1,),)
        assert pair.removed_symbol == 1
        assert cert.canonical

    def test_fallback_used_for_standard_weights(self):
        # shape (2,2) over (2,1) with all-distinct entries: row 2 of
        # ((1,2),(3,4)) has no symbol 2, so the per-item rule cannot apply;
        # the four leftover items on each side are paired in listing order
        cert = theorem4_bijection((1, 1, 1, 1), (2, 1))
        assert not cert.canonical
        assert cert.check()
        got = [
            (format_tableau(p.mu_tableau), p.removed_symbol,
             format_tableau(p.rho_tableau), p.canonical)
            for p in cert.pairs
        ]
        assert got == [
            ("1,2,3/4", 1, "2,3/4", True),
            ("1,2,4/3", 1, "2,4/3", True),
            ("1,3,4/2", 2, "1,4/3", False),
            ("1,2/3,4", 3, "1,2/4", False),
            ("1,3/2,4", 2, "1,3/4", True),
            ("1,2/3/4", 4, "1,2/3", False),
            ("1,3/2/4", 4, "1,3/2", False),
            ("1,4/2/3", 3, "1,4/2", True),
        ]
        assert cert.canonical_count == 4

    def test_check_rejects_a_wrong_removed_symbol(self):
        cert = theorem4_bijection((2, 2, 1), (3, 1))
        first = cert.pairs[0]
        wrong = replace(first, removed_symbol=first.removed_symbol + 1)
        assert not replace(cert, pairs=(wrong,) + cert.pairs[1:]).check()

    def test_check_rejects_a_certificate_missing_items(self, monkeypatch):
        # both sides lose as many tableaux, so the pairing still completes,
        # but it no longer covers either side
        enumerate_all = tableaux.enumerate_ssyt
        monkeypatch.setattr(
            tableaux, "enumerate_ssyt", lambda shape, weight: enumerate_all(shape, weight)[:-1]
        )
        cert = theorem4_bijection((2, 2, 1), (3, 1))
        assert len(cert.pairs) == 2
        assert not cert.check()

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_unequal_sides_raise(self, monkeypatch, side):
        lam, rho = (2, 2, 1), (3, 1)
        enumerate_all = tableaux.enumerate_ssyt

        def lose_one(shape, weight):
            found = enumerate_all(shape, weight)
            on_left = tuple(shape) != rho
            return found[:-1] if on_left == (side == "left") else found

        monkeypatch.setattr(tableaux, "enumerate_ssyt", lose_one)
        with pytest.raises(SelfCheckError):
            theorem4_bijection(lam, rho)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_true_bijection_everywhere(self, n):
        total = canonical = 0
        for lam in enumerate_partitions(n):
            for rho in enumerate_partitions(n - 1):
                cert = theorem4_bijection(lam, rho)
                assert cert.check()
                left, right = eq2_check(lam, rho)
                assert len(cert.pairs) == left == right
                total += len(cert.pairs)
                canonical += cert.canonical_count
        # the canonical rule covers most items; the exact share is pinned
        # in the acceptance suite where it is also reported
        assert canonical <= total


class TestStandard:
    def test_counts(self):
        assert len(enumerate_standard((2, 1, 1))) == 3
        assert len(enumerate_standard((2, 2))) == 2
        for n in range(1, 8):
            assert len(enumerate_standard((n,))) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_branching_count(self, n):
        for lam in enumerate_partitions(n):
            assert len(enumerate_standard(lam)) == standard_count(lam)


class TestTextFormat:
    def test_round_trip(self):
        t = ((1, 1, 1, 2), (2, 3))
        assert format_tableau(t) == "1,1,1,2/2,3"
        assert parse_tableau("1,1,1,2/2,3") == t
