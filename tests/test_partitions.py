import ast
from pathlib import Path

import pytest

from oracles import (
    branching_sides_oracle,
    dominates_oracle,
    kostka_strip_oracle,
    partitions_oracle,
    predecessors_oracle,
)
from younglab import characters, forms, partitions, tableaux
from younglab.characters import (
    eq1_check,
    ind_sgn_character,
    lemma1_check,
    multiplicity_table,
    perm_character,
)
from younglab.errors import EmptyPartitionError, LimitError, SelfCheckError, SizeMismatchError
from younglab.forms import statement2_check, theorem5_check, two_row_decomposition
from younglab.linsys import polymorphism_feasibility, statement1_check
from younglab.partitions import (
    _index,
    _pack,
    _unpack,
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
    standard_count,
    successors,
)
from younglab.sweeps import run_sweep
from younglab.tableaux import eq2_check, kostka, theorem4_bijection


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

    @pytest.mark.parametrize("n", range(0, 21))
    def test_exact_order_of_the_plain_recursion(self, n):
        assert enumerate_partitions(n) == tuple(partitions_oracle(n))

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
        with pytest.raises(LimitError):
            enumerate_partitions(6)
        assert partition_count(5) == 7


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

    @pytest.mark.parametrize("n", range(0, 11))
    def test_matches_the_padded_prefix_oracle(self, n):
        ps = enumerate_partitions(n)
        for mu in ps:
            for lam in ps:
                assert dominates(mu, lam) == dominates_oracle(mu, lam)

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

    @pytest.mark.parametrize("n", range(1, 13))
    def test_predecessors_match_the_oracle(self, n):
        for lam in enumerate_partitions(n):
            assert predecessors(lam) == predecessors_oracle(lam)

    def test_list_arguments_answer_like_tuples(self):
        assert predecessors([2, 2, 1]) == predecessors((2, 2, 1))
        assert successors([3, 1]) == successors((3, 1))
        assert bar([2, 2]) == bar((2, 2))
        assert dominates([3, 1], [2, 2]) == dominates((3, 1), (2, 2))

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

    @pytest.mark.parametrize("n", range(13))
    def test_cover_tables_are_the_cover_lists(self, n):
        for p in enumerate_partitions(n):
            assert partitions._successors(p) == tuple(successors(p))
            if p:
                assert partitions._predecessors(p) == tuple(predecessors(p))

    def test_successors_predecessors_are_adjoint(self):
        for n in range(1, 10):
            for rho in enumerate_partitions(n - 1):
                for mu in successors(rho):
                    assert rho in [g for g, _ in predecessors(mu)]


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

    @pytest.mark.parametrize("n", range(0, 17))
    def test_upset_is_the_dominates_filter_in_order(self, n):
        for lam in enumerate_partitions(n):
            expected = [mu for mu in enumerate_partitions(n) if dominates(mu, lam)]
            assert dominance_upset(lam) == expected

    @pytest.mark.parametrize("n", range(0, 10))
    def test_dominance_covers_are_the_brute_force_covers(self, n):
        # mu strictly dominates lam with no nu strictly between them
        shapes = enumerate_partitions(n)
        for lam in shapes:
            above = [mu for mu in shapes if mu != lam and dominates(mu, lam)]
            expected = [mu for mu in above
                        if not any(nu != mu and dominates(mu, nu) for nu in above)]
            assert sorted(partitions._dominance_covers(lam)) == sorted(expected)

    def test_a_non_partition_has_no_upset(self):
        with pytest.raises(KeyError):
            dominance_upset((1, 2))

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
        with pytest.raises(ValueError, match="^partition must have positive"):
            check_partition((2.5,))  # else truncated to (2,)


class TestWarmTables:
    """The cached entry points check every call, so a warm table answers
    no key that the check refuses."""

    @pytest.mark.parametrize("door, warm, bad", [
        (kostka, ((2,), (2,)), ((2,), (2.0,))),  # else 1
        (standard_count, ((2, 1),), ((2.0, 1),)),  # else 2
        (ind_sgn_character, ((2, 1),), ((2.0, 1),)),  # else the cached character
        (enumerate_partitions, (3,), (3.0,)),  # else ((3.0,), (2.0, 1), ...)
        (multiplicity_table, (3,), (3.0,)),  # else the table of degree 3
    ], ids=["kostka", "standard-count", "ind-sgn", "enumerate", "multiplicity-table"])
    def test_float_key_equal_to_a_warm_key(self, door, warm, bad):
        door(*warm)
        with pytest.raises(ValueError):
            door(*bad)

    @pytest.mark.parametrize("door, args", [
        (enumerate_partitions, (6,)),
        (kostka, ((4, 2), (2, 2, 1, 1))),
        (eq2_check, ((3, 2, 1), (3, 2))),
        (perm_character, ((3, 2, 1),)),
        (lemma1_check, ((3, 2, 1),)),
        (eq1_check, ((3, 2, 1), (3, 2))),
        (multiplicity_table, (6,)),
    ], ids=["enumerate", "kostka", "eq2", "perm-character", "lemma1", "eq1",
            "multiplicity-table"])
    def test_cap_holds_on_a_warm_table(self, monkeypatch, door, args):
        door(*args)
        monkeypatch.setenv("YOUNGLAB_MAX_N", "5")
        with pytest.raises(LimitError):
            door(*args)

    @pytest.mark.parametrize("door", [eq2_check, eq1_check, theorem4_bijection],
                             ids=["eq2", "eq1", "theorem4"])
    def test_cap_holds_on_warm_cover_tables(self, monkeypatch, door):
        lam, rho = (4, 3, 2, 1), (4, 3, 2)  # degree 10
        door(lam, rho)
        tables = (partitions._successors, partitions._predecessors)
        assert all(table.cache_info().currsize for table in tables)
        monkeypatch.setenv("YOUNGLAB_MAX_N", "8")
        with pytest.raises(LimitError):
            door(lam, rho)


class TestSlotCodec:
    """The one slot layout: signed slots of whole bytes, entry j at bit 8Wj."""

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("count", range(6))
    def test_extremes_round_trip(self, width, count):
        top = (1 << 8 * width - 1) - 1
        for values in ([0] * count, [top] * count, [-top] * count,
                       [(-top, 0, top)[k % 3] for k in range(count)]):
            assert _unpack(_pack(values, width), count, width) == values

    def test_slots_are_whole_bytes_lowest_first(self):
        assert _pack([1, 2, 3], 1) == 1 + (2 << 8) + (3 << 16)
        assert _pack([-1, 1], 2) == -1 + (1 << 16)
        assert _pack([], 2) == 0

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("value", ["over", "under"])
    def test_a_value_outside_its_slot_raises_and_never_wraps(self, width, value):
        half = 1 << 8 * width - 1
        bad = half if value == "over" else -half - 1
        with pytest.raises(OverflowError):
            _pack([0, bad, 0], width)

    def test_unpack_reads_the_first_slots_of_a_longer_packing(self):
        values = [5, -7, 0, 127, -127]
        x = _pack(values, 1)
        for count in range(len(values) + 1):
            assert _unpack(x, count, 1) == values[:count]

    def test_only_partitions_converts_ints_to_bytes(self):
        # the codec stays in one module: no other packs or reads slots itself
        package = Path(partitions.__file__).parent
        callers = set()
        for path in package.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr in ("to_bytes", "from_bytes"):
                    callers.add(path.name)
        assert callers == {"partitions.py"}

    @pytest.mark.parametrize("n", range(13))
    def test_index_is_the_position_in_the_frozen_order(self, n):
        shapes = enumerate_partitions(n)
        assert list(_index(n)) == list(shapes)
        assert [_index(n)[lam] for lam in shapes] == list(range(len(shapes)))


@pytest.mark.usefixtures("fresh_sides")
class TestBranchingSides:
    """eq1 and eq2 share the body `_BranchingSides`, not its tables."""

    PAIRS = [((3, 2, 1), (3, 2)), ((4, 1), (2, 2)), ((2, 2), (2, 1))]

    @staticmethod
    def zeros(rows):
        return {lam: (0,) * len(row) for lam, row in rows.items()}

    def test_eq1_reads_no_kostka_number(self, monkeypatch):
        want = [eq1_check(lam, rho) for lam, rho in self.PAIRS]
        real = tableaux._kostka_table
        monkeypatch.setattr(tableaux, "_kostka_table", lambda n: self.zeros(real(n)))
        assert [eq2_check(lam, rho) for lam, rho in self.PAIRS] == [(0, 0)] * 3
        assert [eq1_check(lam, rho) for lam, rho in self.PAIRS] == want

    def test_eq2_reads_no_multiplicity(self, monkeypatch):
        want = [eq2_check(lam, rho) for lam, rho in self.PAIRS]
        real = characters._multiplicity_table
        monkeypatch.setattr(characters, "_multiplicity_table",
                            lambda n: real(n)._replace(rows=self.zeros(real(n).rows)))
        assert [eq1_check(lam, rho) for lam, rho in self.PAIRS] == [(0, 0)] * 3
        assert [eq2_check(lam, rho) for lam, rho in self.PAIRS] == want

    def test_sides_of_a_known_pair(self):
        # left, over the covers (4,1), (3,2), (3,1,1) of rho: K = 2 + 1 + 1;
        # right, over (2,1,1) with c = 1 and (3,1) with c = 2: 1*2 + 2*1
        assert eq2_check((3, 1, 1), (3, 1)) == (4, 4)
        # with every table value 1, the sides count covers and removals
        def ones(n):
            return {lam: (1,) * i for i, lam in enumerate(enumerate_partitions(n), 1)}

        assert partitions._BranchingSides(ones(5), ones(4), 5).pair(
            (3, 1, 1), (3, 1)) == (3, 3)


    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("route", ["kostka", "multiplicity"])
    def test_packed_sides_decode_to_the_pairwise_sums(self, route, n):
        if route == "kostka":
            sides, big = tableaux._eq2_sides(n), kostka_strip_oracle
            small = big
        else:
            sides, big = characters._eq1_sides(n), multiplicity_table(n)
            small = multiplicity_table(n - 1)
        shapes = enumerate_partitions(n - 1)
        for lam in enumerate_partitions(n):
            left, right = (_unpack(x, len(shapes), sides.width) for x in sides.packed(lam))
            for rho, a, b in zip(shapes, left, right):
                want = branching_sides_oracle(big, small, lam, rho)
                assert (a, b) == want
                assert sides.pair(lam, rho) == want

    def test_entry_over_the_slot_bound_is_refused_before_comparing(self, monkeypatch):
        # at n = 5 a slot is one byte (5 * isqrt(5!) = 50 < 128).  D_(4,1)
        # has slots {0, 1} and D_(3,2) slots {1, 2}, so the row of (3, 1, 1),
        # (1, 2, 1, 1), with 256 added to the entry of (4, 1) and 1 taken from
        # that of (3, 2) gives the same packed left side: unchecked, every
        # pair of (3, 1, 1) would pass
        big = dict(tableaux._kostka_table(5))
        sides = partitions._BranchingSides(big, tableaux._kostka_table(4), 5)
        assert (sides.bound, sides.width) == (10, 1)
        assert [sides.covers[i] for i in (1, 2)] == [1 + (1 << 8), (1 << 8) + (1 << 16)]
        assert big[(3, 1, 1)] == (1, 2, 1, 1)
        big[(3, 1, 1)] = (1, 258, 0, 1)
        with pytest.raises(SelfCheckError, match=r"^table entry out of bound at \(3, 1, 1\)$"):
            sides.packed((3, 1, 1))
        # through the sweep, whose last degree reads the row only as big
        real = tableaux._kostka_table
        monkeypatch.setattr(tableaux, "_kostka_table", lambda n: big if n == 5 else real(n))
        with pytest.raises(SelfCheckError, match=r"^table entry out of bound at \(3, 1, 1\)$"):
            run_sweep("eq2", 5)

    @pytest.mark.parametrize("route", ["big", "small"])
    def test_negative_entry_is_refused(self, route):
        big, small = dict(tableaux._kostka_table(5)), dict(tableaux._kostka_table(4))
        table, lam = (big, (3, 1, 1)) if route == "big" else (small, (2, 1, 1))
        table[lam] = (-1,) + table[lam][1:]
        with pytest.raises(SelfCheckError, match=r"^table entry out of bound at \(.*\)$"):
            partitions._BranchingSides(big, small, 5).packed((3, 1, 1))


class TestCapBeforeWork:
    """An entry point over the cap raises before its first piece of work."""

    @pytest.mark.parametrize("module, work, entry, args", [
        (partitions, "_enumerate_partitions", statement1_check, ((6,),)),
        (partitions, "_enumerate_partitions", polymorphism_feasibility, (6,)),
        (forms, "_arrangements", statement2_check, ((3, 3), 6)),
        (forms, "_arrangements", theorem5_check, ((3, 3), 6)),
        (forms, "squarefree_monomials", two_row_decomposition, (6, 3)),
    ], ids=["statement1", "polymorphism", "statement2", "theorem5", "two-row"])
    def test_limit_before_any_work(self, monkeypatch, module, work, entry, args):
        def not_reached(*_):
            raise AssertionError(f"{work} ran above the cap")

        monkeypatch.setattr(module, work, not_reached)
        monkeypatch.setenv("YOUNGLAB_MAX_N", "5")
        with pytest.raises(LimitError):
            entry(*args)
