import ast
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations
from pathlib import Path

import pytest

from oracles import (
    certificate_check_oracle,
    kostka_strip_oracle,
    parse_tableau,
    semistandard_oracle,
    ssyt_backtracking_oracle,
    strips_oracle,
    tableau_shape,
    tableau_weight,
)
from younglab import tableaux
from younglab.errors import LimitError, SelfCheckError, SizeMismatchError
from younglab.partitions import (
    dominates,
    enumerate_partitions,
    standard_count,
    successors,
)
from younglab.tableaux import (
    BijectionCertificate,
    BijectionPair,
    enumerate_ssyt,
    enumerate_standard,
    eq2_check,
    format_tableau,
    kostka,
    strip_weight,
    theorem4_bijection,
)
from younglab.sweeps import run_sweep


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
                    assert semistandard_oracle(t)
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

    @pytest.mark.parametrize("n", range(0, 7))
    def test_matches_backtracking_on_weak_compositions(self, n):
        # same list, order included; n + 1 parts, so every w has a zero
        for mu in enumerate_partitions(n):
            for w in weak_compositions(n, n + 1):
                assert enumerate_ssyt(mu, w) == ssyt_backtracking_oracle(mu, w)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_backtracking_on_partition_and_standard_weights(self, n):
        for mu in enumerate_partitions(n):
            for w in (*enumerate_partitions(n), (1,) * n):
                assert enumerate_ssyt(mu, w) == ssyt_backtracking_oracle(mu, w)


def test_semistandard_oracle_examples():
    assert semistandard_oracle(((1, 1, 2), (2, 3)))
    assert semistandard_oracle(((1,), ()))
    assert not semistandard_oracle(((1,), (2, 3)))  # ragged
    assert not semistandard_oracle(((0, 1),))
    assert not semistandard_oracle(((1, 2), (1, 3)))  # column not strict


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

    @pytest.mark.parametrize("shape, weight, message", [
        ((2.5,), (2,), "^shape must have positive"),  # else counted as (2,)
        ((2,), (2.0,), "^weight counts must be nonnegative integers"),  # else 1
    ])
    def test_rejects_non_integer_parts_and_counts(self, shape, weight, message):
        for route in (kostka, enumerate_ssyt):
            with pytest.raises(ValueError, match=message):
                route(shape, weight)

    def test_size_cap_checked_before_work(self, monkeypatch):
        monkeypatch.setenv("YOUNGLAB_MAX_N", "5")
        for route in (kostka, enumerate_ssyt):
            with pytest.raises(LimitError):
                route((6,), (1,) * 6)
        assert kostka((5,), (1,) * 5) == 1


class TestKostkaTable:
    """The degree tables and the single chains of `kostka`, both by Pieri's
    rule, against the strip-removal recursion of the oracles."""

    @pytest.fixture(autouse=True)
    def fresh_tables(self, fresh_sides):
        tableaux._kostka_table.cache_clear()
        yield
        tableaux._kostka_table.cache_clear()

    @pytest.mark.parametrize("n", range(13))
    def test_every_pair_matches_the_strip_oracle(self, n):
        shapes = enumerate_partitions(n)
        rows = tableaux._kostka_table(n)
        assert list(rows) == list(shapes)
        for i, (lam, row) in enumerate(rows.items()):
            assert type(row) is tuple and len(row) == i + 1
            assert row + (0,) * (len(shapes) - i - 1) == tuple(
                kostka_strip_oracle(mu, lam) for mu in shapes)

    @pytest.mark.parametrize("n", range(7))
    def test_kostka_matches_the_strip_oracle_on_weak_compositions(self, n):
        for mu in enumerate_partitions(n):
            for w in weak_compositions(n, n + 1):
                assert kostka(mu, w) == kostka_strip_oracle(mu, w)

    @pytest.mark.parametrize("name", ["eq2", "youngs-rule"])
    def test_each_degree_is_built_once(self, name):
        assert run_sweep(name, 9).status == "pass"
        info = kostka.cache_info()
        assert (info.misses, info.currsize) == (9, 2)

    def test_kostka_keeps_nothing(self):
        assert kostka((4, 2, 1), (2, 2, 2, 1)) == 6
        assert kostka.cache_info().currsize == 0

    def test_a_count_past_lam_raises(self, monkeypatch):
        # every Pieri step also counts the one-column shape, which comes
        # after (3,) in the frozen order
        real = tableaux._added

        def padded(nu, r):
            return (*real(nu, r), ((1,) * (sum(nu) + r), 1))

        monkeypatch.setattr(tableaux, "_added", padded)
        with pytest.raises(SelfCheckError,
                           match=r"^a shape listed after \(3,\) has tableaux of weight \(3,\)$"):
            tableaux._kostka_table(3)


class TestLongWeights:
    """Zero counts add no recursion level: a weight padded with thousands
    of zeros, before or after its symbols, is counted and listed."""

    @pytest.mark.parametrize("weight, tableau", [
        ((1,) + (0,) * 3000, ((1,),)),
        ((0,) * 3000 + (1,), ((3001,),)),
        ((0,) * 1500 + (1,) + (0,) * 1500, ((1501,),)),
    ], ids=["trailing", "leading", "both"])
    def test_one_cell(self, weight, tableau):
        assert kostka((1,), weight) == 1
        assert enumerate_ssyt((1,), weight) == [tableau]

    def test_zeros_between_symbols(self):
        weight = (0,) * 2000 + (1,) + (0,) * 2000 + (1, 1) + (0,) * 2000
        assert kostka((2, 1), weight) == 2
        assert enumerate_ssyt((2, 1), weight) == [((2001, 4002), (4003,)),
                                                  ((2001, 4003), (4002,))]


class TestStrips:
    def test_matches_brute_force(self):
        for n in range(9):
            for mu in enumerate_partitions(n):
                for size in range(n + 1):
                    got = tableaux._strips(mu, size)
                    assert type(got) is tuple
                    assert sorted(got) == sorted(strips_oracle(mu, size))

    def test_a_strip_opens_at_most_one_new_row(self):
        # nu[i] >= mu[i+1]: `_ssyt` appends at most one new row, the last of mu
        for n in range(9):
            for mu in enumerate_partitions(n):
                for size in range(n + 1):
                    for nu in tableaux._strips(mu, size):
                        assert len(mu) - 1 <= len(nu) <= len(mu)

    def test_import_leaves_the_table_empty(self):
        # every functools cache table of the package, private ones included:
        # this one, and those behind the checked entry points, which the
        # benchmark's cold-start gate cannot see
        root = Path(__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c",
             "import functools, json, sys, younglab, younglab.cli\n"
             "print(json.dumps({f'{name}.{attr}': fn.cache_info().currsize\n"
             "    for name, module in list(sys.modules.items())\n"
             "    if name.startswith('younglab')\n"
             "    for attr, fn in vars(module).items()\n"
             "    if isinstance(fn, functools._lru_cache_wrapper)}))"],
            cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        sizes = json.loads(done.stdout)
        assert {"younglab.tableaux._strips", "younglab.tableaux._added",
                "younglab.tableaux._corners", "younglab.tableaux._weights",
                "younglab.tableaux._kostka_table",
                "younglab.tableaux._eq2_sides", "younglab.characters._eq1_sides",
                "younglab.partitions._enumerate_partitions",
                "younglab.partitions._standard_count",
                "younglab.partitions._successors",
                "younglab.partitions._predecessors",
                "younglab.partitions._upsets", "younglab.partitions._index",
                "younglab.characters._character_layer",
                "younglab.characters._monomial_terms",
                "younglab.tableaux._prefix_store"} <= sizes.keys()
        assert {name: size for name, size in sizes.items() if size} == {}


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
                            assert semistandard_oracle(tuple(rows))


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

    @pytest.mark.parametrize("lam, rho, name", [
        ((2, 3), (2, 2), "lam"),  # else counted as if lam were (3, 2)
        ((2, 3, 1), (3, 2), "lam"),  # else reported as the unequal (4, 3)
        ((3, 2), (2, 1, 1, 0), "rho"),  # rho with a zero part
    ])
    def test_rejects_non_partitions_naming_the_argument(self, lam, rho, name):
        with pytest.raises(ValueError, match=rf"^{name} must have positive"):
            eq2_check(lam, rho)


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


# Left tableaux that replace the first pair's in the certificate of
# (2,2,1) over (3,1)
LEFT_MUTANTS = {
    "column-not-strict": "1,2,2,3/1",
    "row-decreases": "1,2,1,2/3",
    "entry-zero": "0,1,2,2/3",
    "entry-above-len-lam": "1,1,2,2/4",
    "empty-trailing-row": "1,1,2,2/3/",
    "shape-not-covering-rho": "1,1/2,2/3",
}
# Right tableaux of shape (3,1) and weight (1,2,1) that replace the first
# pair's, its gamma weight kept
RIGHT_MUTANTS = {
    "column-not-strict": "2,2,3/1",
    "row-decreases": "1,3,2/2",
}
MUTANTS = (*LEFT_MUTANTS, *(f"right-{name}" for name in RIGHT_MUTANTS),
           "right-of-wrong-weight", "right-of-wrong-shape",
           "wrong-gamma-weight", "duplicated-left-item", "duplicated-right-item",
           "canonical-flag-forged", "canonical-flag-dropped",
           "right-canonical-image-not-semistandard")


def certificate_mutants():
    """The certificate of (2,2,1) over (3,1), and copies of it with its
    first two pairs changed so that one condition of `check()` fails, where
    it can be, only that one.  One mutant is of the certificate of (1,1,1)
    over (1,1): its leftover left item 1,3/2 is paired with its canonical
    image 3/2, flagged canonical, which breaks only the column of rows 1
    and 2 (the one pair of rows `check()` compares for such an image)."""
    cert = theorem4_bijection((2, 2, 1), (3, 1))
    first, second, *rest = cert.pairs
    other = next(p for p in cert.pairs if p.gamma_weight != first.gamma_weight)
    one_row = (tuple(sorted(sum(first.rho_tableau, ()))),)
    changed = {
        **{name: (first._replace(mu_tableau=parse_tableau(text)), second)
           for name, text in LEFT_MUTANTS.items()},
        **{f"right-{name}": (first._replace(rho_tableau=parse_tableau(text)), second)
           for name, text in RIGHT_MUTANTS.items()},
        "right-of-wrong-weight": (first._replace(rho_tableau=other.rho_tableau), second),
        "right-of-wrong-shape": (first._replace(rho_tableau=one_row), second),
        "wrong-gamma-weight": (first._replace(gamma_weight=other.gamma_weight), second),
        "duplicated-left-item": (first, second._replace(mu_tableau=first.mu_tableau)),
        "duplicated-right-item": (first, second._replace(
            removed_symbol=first.removed_symbol,
            rho_tableau=first.rho_tableau, gamma_weight=first.gamma_weight)),
        # both pairs remove symbol 1: swapped right items keep the bijection
        "canonical-flag-forged": (first._replace(rho_tableau=second.rho_tableau),
                                  second._replace(rho_tableau=first.rho_tableau)),
        "canonical-flag-dropped": (first._replace(canonical=False), second),
    }
    mutants = {name: cert._replace(pairs=(*two, *rest)) for name, two in changed.items()}
    small = theorem4_bijection((1, 1, 1), (1, 1))
    forged = BijectionPair(((1, 3), (2,)), 1, ((3,), (2,)), (0, 1, 1), True)
    mutants["right-canonical-image-not-semistandard"] = small._replace(pairs=tuple(
        forged if p.mu_tableau == forged.mu_tableau else p for p in small.pairs))
    return cert, mutants


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
        wrong = first._replace(removed_symbol=first.removed_symbol + 1)
        mutant = cert._replace(pairs=(wrong,) + cert.pairs[1:])
        assert not mutant.check()
        assert not certificate_check_oracle(mutant)

    @pytest.mark.parametrize("lam, rho", [([2, 1], (2,)), ((2, 1), [2])],
                             ids=["lam", "rho"])
    def test_check_answers_a_list_like_the_equal_tuple(self, lam, rho):
        pairs = theorem4_bijection((2, 1), (2,)).pairs
        assert BijectionCertificate(lam, rho, pairs).check()
        assert not BijectionCertificate(lam, rho, pairs[1:]).check()

    @pytest.mark.parametrize("keep", [0, 2], ids=["no-pairs", "all-pairs"])
    def test_check_refuses_a_field_that_is_not_a_partition(self, keep):
        pairs = theorem4_bijection((2, 1), (2,)).pairs[:keep]
        with pytest.raises(ValueError, match="^lam must have positive"):
            BijectionCertificate((1, 2), (2,), pairs).check()

    @pytest.mark.parametrize("field, change", [
        ("mu_tableau", lambda t: tuple(list(row) for row in t)),
        ("mu_tableau", lambda t: (1,) * len(t)),
        ("rho_tableau", lambda t: [list(row) for row in t]),
        ("gamma_weight", list),
        ("removed_symbol", float),
    ], ids=["mu-list-rows", "mu-not-rows", "rho-list", "gamma-list", "x-float"])
    def test_check_answers_false_on_a_field_of_another_type(self, field, change):
        cert = theorem4_bijection((2, 1), (2,))
        first = cert.pairs[0]
        changed = first._replace(**{field: change(getattr(first, field))})
        assert cert.check()
        assert not cert._replace(pairs=(changed, *cert.pairs[1:])).check()

    def test_check_reads_the_fields_of_a_pair_by_position(self):
        cert = theorem4_bijection((2, 1), (2,))
        plain = cert._replace(pairs=tuple(map(tuple, cert.pairs)))
        assert plain == cert and type(plain.pairs[0]) is tuple
        assert plain.check() and cert.check()

    def test_canonical_reads_the_flag_of_a_pair_by_position(self):
        cert = theorem4_bijection((2, 1), (2,))
        plain = cert._replace(pairs=tuple(map(tuple, cert.pairs)))
        assert (plain.canonical, plain.canonical_count) == (cert.canonical, cert.canonical_count)
        assert 0 < cert.canonical_count <= len(cert.pairs)

    @pytest.mark.parametrize("change", [lambda p: p[:4], lambda p: (*p, True)],
                             ids=["short", "long"])
    def test_check_answers_false_on_a_pair_of_another_length(self, change):
        cert = theorem4_bijection((2, 1), (2,))
        first = change(tuple(cert.pairs[0]))
        assert not cert._replace(pairs=(first, *cert.pairs[1:])).check()

    def test_mutants_are_well_formed(self):
        cert, mutants = certificate_mutants()
        assert cert.check() and certificate_check_oracle(cert)
        assert set(mutants) == set(MUTANTS)
        # the row and column mutants keep the shape and the weight
        for name in ("column-not-strict", "row-decreases"):
            t = mutants[name].pairs[0].mu_tableau
            assert tableau_shape(t) == (4, 1) and tableau_weight(t) == (2, 2, 1)
            s = mutants[f"right-{name}"].pairs[0].rho_tableau
            assert tableau_shape(s) == (3, 1) and not semistandard_oracle(s)
            assert tableau_weight(s) == cert.pairs[0].gamma_weight == (1, 2, 1)
        t = mutants["shape-not-covering-rho"].pairs[0].mu_tableau
        assert semistandard_oracle(t) and tableau_weight(t) == (2, 2, 1)
        s = mutants["right-of-wrong-shape"].pairs[0].rho_tableau
        assert semistandard_oracle(s) and tableau_shape(s) == (4,)
        # the forged pairs are a bijection whose only fault is its flags
        forged = mutants["canonical-flag-forged"]
        honest = (p._replace(canonical=False) for p in forged.pairs[:2])
        assert cert.canonical and forged.canonical
        assert forged._replace(pairs=(*honest, *forged.pairs[2:])).check()
        # the image pair replaces a leftover pair: its only fault is that
        # the image is not semistandard, in rows 1 and 2
        image = mutants["right-canonical-image-not-semistandard"]
        small = theorem4_bijection((1, 1, 1), (1, 1))
        assert small.check() and len(image.pairs) == len(small.pairs) == 3
        changed = [(p, q) for p, q in zip(image.pairs, small.pairs) if p != q]
        assert len(changed) == 1
        (t, x, s, w, flag), old = changed[0]
        assert old.mu_tableau == t and not old.canonical and flag
        assert tableaux._canonical_image(t, x) == s and tableau_shape(s) == (1, 1)
        assert tableau_weight(s) == w == (0, 1, 1) and not semistandard_oracle(s)
        assert len({p.rho_tableau for p in image.pairs}) == 3

    def test_check_rejects_forged_canonical_flags(self):
        cert = theorem4_bijection((3, 1, 1), (4,))
        assert (cert.canonical_count, len(cert.pairs)) == (2, 3)
        forged = cert._replace(pairs=tuple(p._replace(canonical=True) for p in cert.pairs))
        assert forged.canonical
        assert not forged.check()
        assert not certificate_check_oracle(forged)

    @pytest.mark.parametrize("name", MUTANTS)
    def test_check_rejects_each_mutant(self, name):
        mutant = certificate_mutants()[1][name]
        assert not mutant.check()
        assert not certificate_check_oracle(mutant)

    def test_check_lists_nothing_and_reads_no_store(self, fresh_store, monkeypatch):
        # the store holds whole left sides: check() must still read
        # every tableau it is given, and none it could look up
        warm = [theorem4_bijection(*pair) for pair in degree_inputs(6)]
        mutants = certificate_mutants()[1]

        def refuse(*args):
            raise AssertionError("check() listed or read the store")

        for name in ("_ssyt", "_listed", "_prefix_store"):
            monkeypatch.setattr(tableaux, name, refuse)
        assert all(cert.check() for cert in warm)
        assert not any(mutant.check() for mutant in mutants.values())

    @pytest.mark.parametrize("n", range(2, 8))
    def test_check_agrees_with_cell_by_cell_oracle(self, n):
        for lam in enumerate_partitions(n):
            for rho in enumerate_partitions(n - 1):
                cert = theorem4_bijection(lam, rho)
                assert cert.check() == certificate_check_oracle(cert) is True

    @pytest.mark.parametrize("n", range(2, 8))
    def test_row_rule_decides_each_canonical_image(self, n):
        # check() passes a right item that is its left item's image at the
        # corner row r when each entry of its row r is less than the one
        # under it in row r + 1; for every left item with an image that must
        # answer like the full walk and the shape check
        answers = Counter()
        for lam, rho in degree_inputs(n):
            corners = tableaux._corners(rho)
            for t in (p.mu_tableau for p in theorem4_bijection(lam, rho).pairs):
                r = corners[tableau_shape(t)]
                s = tableaux._canonical_image(t, r)
                if s is None:
                    continue
                short = sorted(sum(t, ()))
                short.remove(r)
                rule = r >= len(s) or all(a < b for a, b in zip(s[r - 1], s[r]))
                assert rule == (tableaux._fills(s, short) and tableau_shape(s) == rho)
                answers[rule] += 1
        assert answers[True] and (answers[False] or n < 3)

    def test_check_rejects_a_certificate_missing_items(self, monkeypatch, fresh_store):
        # both sides lose as many tableaux, so the pairing still completes,
        # but it no longer covers either side
        top_levels_lose_one(monkeypatch, lambda shape: True)
        cert = theorem4_bijection((2, 2, 1), (3, 1))
        assert len(cert.pairs) == 2
        assert not cert.check()

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_unequal_sides_raise(self, monkeypatch, fresh_store, side):
        lam, rho = (2, 2, 1), (3, 1)
        top_levels_lose_one(monkeypatch, lambda shape: (shape != rho) == (side == "left"))
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

    @pytest.mark.parametrize("n", range(2, 8))
    def test_certificate_bytes_pinned(self, n):
        # every pair of every certificate of degree n, in order
        certs = (theorem4_bijection(lam, rho) for lam, rho in degree_inputs(n))
        assert certificate_digest(certs) == CERTIFICATE_DIGESTS[n]

    @pytest.mark.parametrize("lam, rho", [
        ((2, 3), (2, 2)),  # lam not a partition
        ((3, 2), (2, 1, 1, 0)),  # rho with a zero part
        ((3, 2), (1, 2, 1)),
    ])
    def test_rejects_non_partitions_at_entry(self, monkeypatch, fresh_store, lam, rho):
        monkeypatch.setattr(tableaux, "_ssyt", None)  # nothing may be listed
        name = "lam" if lam == (2, 3) else "rho"  # the first non-partition
        with pytest.raises(ValueError, match=rf"^{name} must have positive"):
            theorem4_bijection(lam, rho)

    def test_rejects_non_integer_parts(self, monkeypatch, fresh_store):
        monkeypatch.setattr(tableaux, "_ssyt", None)  # nothing may be listed
        with pytest.raises(ValueError, match="^lam must have positive"):
            theorem4_bijection((2.6, 1), (2,))  # else certified as (2, 1)

    def test_size_cap_checked_before_listing(self, monkeypatch, fresh_store):
        monkeypatch.setenv("YOUNGLAB_MAX_N", "5")
        monkeypatch.setattr(tableaux, "_ssyt", None)
        with pytest.raises(LimitError):
            theorem4_bijection((3, 2, 1), (3, 2))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            theorem4_bijection((3, 2), (3, 2))


def top_levels_lose_one(monkeypatch, loses):
    """Patch `_ssyt` so that each top-level listing (one not made for the
    prefix of another) whose shape `loses` is true for lacks one tableau.
    The prefix lists stay whole."""
    ssyt, depth = tableaux._ssyt, 0

    def lose_one(shape, weight, store):
        nonlocal depth
        depth += 1
        try:
            found = ssyt(shape, weight, store)
        finally:
            depth -= 1
        return found[:-1] if not depth and loses(shape) else found

    monkeypatch.setattr(tableaux, "_ssyt", lose_one)


def certificate_digest(certs):
    """SHA-256 over every pair of `certs`, in order."""
    digest = hashlib.sha256()
    for cert in certs:
        for p in cert.pairs:
            digest.update(repr((p.mu_tableau, p.removed_symbol, p.rho_tableau,
                                p.gamma_weight, p.canonical)).encode())
    return digest.hexdigest()


@pytest.fixture
def fresh_store():
    """An empty certificate store before and after the test, so that a test
    that patches the listing internals leaves no list behind."""
    tableaux._prefix_store.cache_clear()
    yield
    tableaux._prefix_store.cache_clear()


def degree_inputs(n):
    return [(lam, rho) for lam in enumerate_partitions(n) for rho in enumerate_partitions(n - 1)]


class TestPrefixStore:
    """Every certificate of a degree reads its proper-prefix lists and its
    left top levels from one store, through `_listed`; each entry is the
    sorted listing of its key, and a certificate built warm must equal one
    built cold."""

    def test_shuffled_degrees_match_cold_builds(self, fresh_store):
        inputs = [pair for n in range(1, 8) for pair in degree_inputs(n)]
        order = inputs[:]
        random.Random(32).shuffle(order)
        warm = {pair: theorem4_bijection(*pair) for pair in order}
        for pair in inputs:
            tableaux._prefix_store.cache_clear()
            assert warm[pair] == theorem4_bijection(*pair), pair
        for n in range(2, 8):
            assert certificate_digest(warm[pair] for pair in degree_inputs(n)) \
                == CERTIFICATE_DIGESTS[n]

    def test_the_store_holds_one_degree_of_prefixes_and_left_sides(self, fresh_store):
        for pair in degree_inputs(5):
            theorem4_bijection(*pair)
        five = tableaux._prefix_store(5)
        for pair in degree_inputs(6):
            theorem4_bijection(*pair)
        assert tableaux._prefix_store.cache_info().currsize == 1
        six = tableaux._prefix_store(6)
        assert six and six is not five
        shapes = enumerate_partitions(6)
        weights = {*shapes, *(w for lam in shapes for w in tableaux._weights(lam))}
        prefixes = {w[:i] for w in weights for i in range(len(w))}
        # every mu of 6 covers some rho of 5: each (mu, lam) is a left top level
        tops = {(mu, lam) for mu in shapes for lam in shapes}
        assert {key for key in six if sum(key[1]) == 6} == tops
        for (mu, w), found in six.items():
            if (mu, w) not in tops:
                assert w in prefixes and sum(w) < 6
            assert found == enumerate_ssyt(mu, w)  # stored sorted

    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_entry_is_the_sorted_listing_of_its_key(self, fresh_store, n):
        for pair in degree_inputs(n):
            theorem4_bijection(*pair)
        store = tableaux._prefix_store(n)
        assert store
        for (shape, weight), found in store.items():
            assert found == sorted(found) == enumerate_ssyt(shape, weight), (shape, weight)

    def test_only_listed_reads_or_writes_a_store(self):
        # a store is a parameter annotated `dict` or a `_prefix_store` call,
        # or a name bound to one; every other function only passes it on
        def is_store_call(node):
            return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_prefix_store"

        tree = ast.parse(Path(tableaux.__file__).read_text())
        users = set()
        for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            stores = {a.arg for a in func.args.args if getattr(a.annotation, "id", None) == "dict"}
            stores |= {target.id for node in ast.walk(func)
                       if isinstance(node, ast.Assign) and is_store_call(node.value)
                       for target in node.targets if isinstance(target, ast.Name)}
            for node in ast.walk(func):
                if isinstance(node, (ast.Subscript, ast.Attribute)) and (
                        is_store_call(node.value)
                        or isinstance(node.value, ast.Name) and node.value.id in stores):
                    users.add(func.name)
        assert users == {"_listed"}

    def test_each_left_top_level_is_listed_once_per_degree(self, monkeypatch, fresh_store):
        ssyt, calls = tableaux._ssyt, Counter()

        def spy(shape, weight, store):
            if sum(weight) == 6:  # a left top level; the right ones weigh 5
                calls[shape, weight] += 1
            return ssyt(shape, weight, store)

        monkeypatch.setattr(tableaux, "_ssyt", spy)
        order = degree_inputs(6)
        random.Random(8).shuffle(order)
        warm = {pair: theorem4_bijection(*pair) for pair in order}
        shapes = enumerate_partitions(6)
        assert calls == {(mu, lam): 1 for mu in shapes for lam in shapes}
        assert certificate_digest(warm[pair] for pair in degree_inputs(6)) \
            == CERTIFICATE_DIGESTS[6]

    def test_enumerate_ssyt_leaves_the_store_untouched(self, fresh_store):
        listings = [(lam, w) for n in (5, 6, 7) for lam in enumerate_partitions(n)
                    for w in (lam, (1,) * n)]
        for lam, w in listings:
            enumerate_ssyt(lam, w)
        assert tableaux._prefix_store.cache_info().currsize == 0
        theorem4_bijection((3, 2, 1), (2, 2, 1))
        store, info = tableaux._prefix_store(6), tableaux._prefix_store.cache_info()
        before = {key: (found, found[:]) for key, found in store.items()}
        for lam, w in listings:
            enumerate_ssyt(lam, w)
        assert tableaux._prefix_store.cache_info() == info
        assert store.keys() == before.keys()
        assert all(store[key] is found and found == copy
                   for key, (found, copy) in before.items())

    def test_an_interrupted_listing_leaves_no_short_list(self, monkeypatch, fresh_store):
        lam, rho = (3, 2, 1), (2, 2, 1)
        cold = theorem4_bijection(lam, rho)
        strips, calls, stop = tableaux._strips, 0, 0

        def interrupted(mu, size):
            nonlocal calls
            calls += 1
            if calls == stop:
                raise KeyboardInterrupt
            return strips(mu, size)

        monkeypatch.setattr(tableaux, "_strips", interrupted)
        tableaux._prefix_store.cache_clear()
        theorem4_bijection(lam, rho)
        total = calls
        assert total > 10
        for stop in range(1, total + 1):
            tableaux._prefix_store.cache_clear()
            calls = 0
            with pytest.raises(KeyboardInterrupt):
                theorem4_bijection(lam, rho)
            for (mu, w), found in tableaux._prefix_store(6).items():
                assert found == enumerate_ssyt(mu, w), (stop, mu, w)
            assert theorem4_bijection(lam, rho) == cold, stop

    def test_threads_build_a_degree_like_one(self, fresh_store):
        inputs = degree_inputs(6)
        want = {pair: theorem4_bijection(*pair) for pair in inputs}
        orders = [inputs, inputs[::-1], random.Random(6).sample(inputs, len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the listings
        try:
            for _ in range(20):
                tableaux._prefix_store.cache_clear()
                with ThreadPoolExecutor(max_workers=len(orders)) as pool:
                    runs = [pool.submit(lambda order: [theorem4_bijection(*p) for p in order],
                                        order) for order in orders]
                    for order, run in zip(orders, runs):
                        assert run.result(timeout=60) == [want[pair] for pair in order]
        finally:
            sys.setswitchinterval(interval)


CERTIFICATE_DIGESTS = {
    2: "acc546b9236c5698fec8a4656ab6546d54b9cd59c207bf010e46ba8a9da765db",
    3: "59ef1da1342350f7f899c61ac3cf159fec9766a5d51307af923812984aa7a494",
    4: "0af7bf1c5632c73819fab8f4bb670da5b26051579efdd75001de2fb012669d7e",
    5: "0c7130826038428c706b28169eb09da08736d0170570f62f306561802441d0bb",
    6: "3668724ddfab6c2799e8e89b99a7bc7cb451ff53288b18d713f918d4f4826d52",
    7: "d06e0d0067503cddce4bea1103e46ecdb7041ef5ee700ae404e48c36301a984e",
}


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
