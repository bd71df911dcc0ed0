import pytest

from younglab.errors import EmptyPartitionError, LimitError, SizeMismatchError
from younglab.partitions import (
    addable_rows,
    bar,
    check_partition,
    conjugate,
    dominance_upset,
    dominates,
    enumerate_partitions,
    format_partition,
    parse_partition,
    partition_count,
    predecessors,
    removable_rows,
    standard_count,
    successors,
)


def pentagonal_p(n: int) -> int:
    """Independent oracle for p(n): Euler's pentagonal-number recurrence."""
    table = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table.append(total)
    return table[n]


def brute_partitions(n: int) -> set[tuple[int, ...]]:
    """Independent oracle: enumerate partitions by unbounded recursion."""
    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return set(rec(n, n))


class TestEnumeration:
    def test_zero(self):
        assert enumerate_partitions(0) == ((),)

    def test_four_exact_order(self):
        assert enumerate_partitions(4) == (
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
        )

    @pytest.mark.parametrize("n", range(0, 13))
    def test_complete_and_distinct(self, n):
        ps = enumerate_partitions(n)
        assert len(set(ps)) == len(ps)
        assert set(ps) == brute_partitions(n)

    @pytest.mark.parametrize("n", [6, 10, 14])
    def test_count_matches_pentagonal_recurrence(self, n):
        assert partition_count(n) == pentagonal_p(n)

    def test_six_has_eleven(self):
        assert partition_count(6) == 11

    @pytest.mark.parametrize("n", range(1, 11))
    def test_order_extends_reverse_dominance(self, n):
        ps = enumerate_partitions(n)
        for i, mu in enumerate(ps):
            for lam in ps[i + 1:]:
                # mu listed first, so lam must not strictly dominate mu
                assert not (dominates(lam, mu) and lam != mu)

    def test_max_n_limit(self, monkeypatch):
        monkeypatch.setenv("YOUNGLAB_MAX_N", "5")
        enumerate_partitions.cache_clear()
        try:
            with pytest.raises(LimitError):
                enumerate_partitions(6)
            assert partition_count(5) == 7
        finally:
            enumerate_partitions.cache_clear()


class TestConjugate:
    @pytest.mark.parametrize("lam,expected", [
        ((3, 2, 1), (3, 2, 1)),
        ((4, 1), (2, 1, 1, 1)),
        ((2, 2, 1), (3, 2)),
        ((), ()),
    ])
    def test_examples(self, lam, expected):
        assert conjugate(lam) == expected

    @pytest.mark.parametrize("n", range(0, 11))
    def test_involution(self, n):
        for lam in enumerate_partitions(n):
            assert conjugate(conjugate(lam)) == lam


class TestDominance:
    def test_examples(self):
        assert dominates((3, 2), (2, 2, 1))
        assert dominates((3, 1), (3, 1))
        assert not dominates((3, 1, 1, 1), (2, 2, 2))
        assert not dominates((2, 2, 2), (3, 1, 1, 1))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            dominates((3,), (2, 2))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_antitone_under_conjugation(self, n):
        for mu in enumerate_partitions(n):
            for lam in enumerate_partitions(n):
                assert dominates(mu, lam) == dominates(conjugate(lam), conjugate(mu))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_upset_meets_conjugate_upset_only_at_lam(self, n):
        # {mu : mu >= lam} intersected with {nu' : nu >= lam'} is {lam}
        for lam in enumerate_partitions(n):
            first = {mu for mu in enumerate_partitions(n) if dominates(mu, lam)}
            second = {
                conjugate(nu)
                for nu in enumerate_partitions(n)
                if dominates(nu, conjugate(lam))
            }
            assert first & second == {lam}


class TestYoungGraph:
    def test_predecessors_known_examples(self):
        assert predecessors((2, 2, 1)) == [((2, 1, 1), 2), ((2, 2), 1)]
        assert predecessors((3, 2, 1)) == [((2, 2, 1), 1), ((3, 1, 1), 1), ((3, 2), 1)]
        assert predecessors((5,)) == [((4,), 1)]

    def test_predecessors_multiplicities_sum_to_part_count(self):
        for n in range(1, 11):
            for lam in enumerate_partitions(n):
                assert sum(c for _, c in predecessors(lam)) == len(lam)

    def test_predecessors_empty(self):
        with pytest.raises(EmptyPartitionError):
            predecessors(())

    def test_successors_examples(self):
        assert successors((1,)) == [(2,), (1, 1)]
        assert successors((4, 1)) == [(5, 1), (4, 2), (4, 1, 1)]
        assert successors((3, 1)) == [(4, 1), (3, 2), (3, 1, 1)]

    def test_successors_are_the_covers_in_enumeration_order(self):
        def covers(mu, rho):
            padded = rho + (0,) * (len(mu) - len(rho))
            return len(padded) == len(mu) and all(a >= b for a, b in zip(mu, padded))

        for n in range(13):
            for rho in enumerate_partitions(n):
                expected = [mu for mu in enumerate_partitions(n + 1) if covers(mu, rho)]
                assert successors(rho) == expected

    def test_successors_predecessors_are_adjoint(self):
        for n in range(1, 10):
            for rho in enumerate_partitions(n - 1):
                for mu in successors(rho):
                    assert rho in [g for g, _ in predecessors(mu)]

    def test_removable_addable(self):
        assert removable_rows((3, 2, 1)) == [1, 2, 3]
        assert removable_rows((2, 2, 1)) == [2, 3]
        assert addable_rows((4, 1)) == [1, 2, 3]


class TestBar:
    @pytest.mark.parametrize("lam,expected", [
        ((3, 2, 1), (2, 2, 1)),
        ((2, 2, 1), (2, 1, 1)),
        ((4,), (3,)),
        ((1, 1), (1,)),
    ])
    def test_examples(self, lam, expected):
        assert bar(lam) == expected

    def test_bar_empty(self):
        with pytest.raises(EmptyPartitionError):
            bar(())

    @pytest.mark.parametrize("n", range(1, 11))
    def test_bar_is_dominance_minimum_of_predecessors(self, n):
        for lam in enumerate_partitions(n):
            gammas = [g for g, _ in predecessors(lam)]
            b = bar(lam)
            assert b in gammas
            assert all(dominates(g, b) for g in gammas)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_predecessors_totally_ordered_by_dominance(self, n):
        for lam in enumerate_partitions(n):
            gammas = [g for g, _ in predecessors(lam)]
            for a in gammas:
                for b in gammas:
                    assert dominates(a, b) or dominates(b, a)


class TestDominanceCounts:
    # the paper's h(lam) is len(dominance_upset(lam)), and hbar(lam) is
    # h(bar(lam))
    def test_h_examples(self):
        assert dominance_upset((2, 1, 1)) == [(4,), (3, 1), (2, 2), (2, 1, 1)]
        for n in range(1, 11):
            assert len(dominance_upset((n,))) == 1
            assert len(dominance_upset((1,) * n)) == partition_count(n)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_upset_is_the_dominates_filter_in_order(self, n):
        for lam in enumerate_partitions(n):
            expected = [mu for mu in enumerate_partitions(n) if dominates(mu, lam)]
            assert dominance_upset(lam) == expected

    def test_hbar(self):
        assert bar((2, 2)) == (2, 1)
        assert len(dominance_upset(bar((2, 2)))) == 2
        assert len(dominance_upset(bar((3, 1)))) == 2


class TestStandardCount:
    def test_examples(self):
        assert standard_count((2, 1, 1)) == 3
        assert standard_count((2, 2)) == 2
        assert standard_count((3, 1)) == 3
        assert standard_count((2, 1)) == 2
        for n in range(1, 10):
            assert standard_count((n,)) == 1

    @pytest.mark.parametrize("n", range(2, 13))
    def test_dimension_recurrence(self, n):
        # n * f(rho) equals the sum of f(mu) over covers mu of rho
        for rho in enumerate_partitions(n - 1):
            total = sum(standard_count(mu) for mu in successors(rho))
            assert total == n * standard_count(rho)


class TestTextFormat:
    @pytest.mark.parametrize("text,parts", [
        ("3,2,1", (3, 2, 1)),
        ("", ()),
        ("5", (5,)),
    ])
    def test_round_trip(self, text, parts):
        assert parse_partition(text) == parts
        assert format_partition(parts) == text

    @pytest.mark.parametrize("bad", ["1,2", "0", "a", "3,,1", "-1"])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_partition(bad)

    def test_check_partition_rejects_non_integer_parts(self):
        with pytest.raises(ValueError, match="^partition must have integer parts"):
            check_partition((2.5,))  # else truncated to (2,)
