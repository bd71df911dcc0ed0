import hashlib
import os
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

from oracles import (
    certificate_check_oracle,
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
    enumerate_ssyt,
    enumerate_standard,
    eq2_check,
    format_tableau,
    is_semistandard,
    kostka,
    strip_weight,
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


def small_arrays(max_rows, max_len, symbols):
    """Every tuple of at most max_rows rows, each of at most max_len
    entries drawn from symbols: ragged shapes, empty rows and zeros."""
    rows = [r for k in range(max_len + 1) for r in product(symbols, repeat=k)]
    for k in range(max_rows + 1):
        yield from product(rows, repeat=k)


class TestIsSemistandard:
    @pytest.mark.parametrize("max_rows, max_len", [(3, 2), (2, 3)])
    def test_agrees_with_cell_by_cell_test(self, max_rows, max_len):
        for t in small_arrays(max_rows, max_len, range(-1, 4)):
            assert is_semistandard(t) == semistandard_oracle(t), t

    def test_examples(self):
        assert is_semistandard(((1, 1, 2), (2, 3)))
        assert is_semistandard(((1,), ()))
        assert not is_semistandard(((1,), (2, 3)))  # ragged
        assert not is_semistandard(((0, 1),))
        assert not is_semistandard(((1, 2), (1, 3)))  # column not strict


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
        ((2.5,), (2,), "^shape must have integer parts"),  # else counted as (2,)
        ((2,), (2.0,), "^weight counts must be nonnegative integers"),  # else 1
    ])
    def test_rejects_non_integer_parts_and_counts(self, shape, weight, message):
        kostka.cache_clear()  # checked on a cache miss, and (2.0,) == (2,) as a key
        for route in (kostka, enumerate_ssyt):
            with pytest.raises(ValueError, match=message):
                route(shape, weight)

    def test_size_cap_checked_before_work(self, monkeypatch):
        monkeypatch.setenv("YOUNGLAB_MAX_N", "5")
        kostka.cache_clear()  # the cap is checked on a cache miss
        for route in (kostka, enumerate_ssyt):
            with pytest.raises(LimitError):
                route((6,), (1,) * 6)
        assert kostka((5,), (1,) * 5) == 1


class TestStrips:
    def test_matches_brute_force(self):
        for n in range(9):
            for mu in enumerate_partitions(n):
                for size in range(n + 1):
                    got = tableaux._strips(mu, size)
                    assert type(got) is tuple
                    assert sorted(got) == sorted(strips_oracle(mu, size))

    def test_import_leaves_the_table_empty(self):
        root = Path(__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c",
             "import younglab; from younglab import tableaux; "
             "print(tableaux._strips.cache_info().currsize)"],
            cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0\n"


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
MUTANTS = (*LEFT_MUTANTS, "right-of-wrong-weight", "right-of-wrong-shape",
           "wrong-gamma-weight", "duplicated-left-item", "duplicated-right-item")


def certificate_mutants():
    """The certificate of (2,2,1) over (3,1), and copies of it with its
    first two pairs changed so that one condition of `check()` fails, where
    it can be, only that one."""
    cert = theorem4_bijection((2, 2, 1), (3, 1))
    first, second, *rest = cert.pairs
    other = next(p for p in cert.pairs if p.gamma_weight != first.gamma_weight)
    one_row = (tuple(sorted(sum(first.rho_tableau, ()))),)
    changed = {
        **{name: (first._replace(mu_tableau=parse_tableau(text)), second)
           for name, text in LEFT_MUTANTS.items()},
        "right-of-wrong-weight": (first._replace(rho_tableau=other.rho_tableau), second),
        "right-of-wrong-shape": (first._replace(rho_tableau=one_row), second),
        "wrong-gamma-weight": (first._replace(gamma_weight=other.gamma_weight), second),
        "duplicated-left-item": (first, second._replace(mu_tableau=first.mu_tableau)),
        "duplicated-right-item": (first, second._replace(
            removed_symbol=first.removed_symbol,
            rho_tableau=first.rho_tableau, gamma_weight=first.gamma_weight)),
    }
    return cert, {name: cert._replace(pairs=(*two, *rest)) for name, two in changed.items()}


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

    def test_mutants_are_well_formed(self):
        cert, mutants = certificate_mutants()
        assert cert.check() and certificate_check_oracle(cert)
        assert set(mutants) == set(MUTANTS)
        # the row and column mutants keep the shape and the weight
        for name in ("column-not-strict", "row-decreases"):
            t = mutants[name].pairs[0].mu_tableau
            assert tableau_shape(t) == (4, 1) and tableau_weight(t) == (2, 2, 1)
        t = mutants["shape-not-covering-rho"].pairs[0].mu_tableau
        assert semistandard_oracle(t) and tableau_weight(t) == (2, 2, 1)
        s = mutants["right-of-wrong-shape"].pairs[0].rho_tableau
        assert semistandard_oracle(s) and tableau_shape(s) == (4,)

    @pytest.mark.parametrize("name", MUTANTS)
    def test_check_rejects_each_mutant(self, name):
        mutant = certificate_mutants()[1][name]
        assert not mutant.check()
        assert not certificate_check_oracle(mutant)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_check_agrees_with_cell_by_cell_oracle(self, n):
        for lam in enumerate_partitions(n):
            for rho in enumerate_partitions(n - 1):
                cert = theorem4_bijection(lam, rho)
                assert cert.check() == certificate_check_oracle(cert) is True

    def test_check_rejects_a_certificate_missing_items(self, monkeypatch):
        # both sides lose as many tableaux, so the pairing still completes,
        # but it no longer covers either side
        listed = tableaux._listed
        monkeypatch.setattr(
            tableaux, "_listed", lambda shape, weight, memo: listed(shape, weight, memo)[:-1]
        )
        cert = theorem4_bijection((2, 2, 1), (3, 1))
        assert len(cert.pairs) == 2
        assert not cert.check()

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_unequal_sides_raise(self, monkeypatch, side):
        lam, rho = (2, 2, 1), (3, 1)
        listed = tableaux._listed

        def lose_one(shape, weight, memo):
            found = listed(shape, weight, memo)
            on_left = tuple(shape) != rho
            return found[:-1] if on_left == (side == "left") else found

        monkeypatch.setattr(tableaux, "_listed", lose_one)
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
        # SHA-256 over every pair of every certificate of degree n, in order
        digest = hashlib.sha256()
        for lam in enumerate_partitions(n):
            for rho in enumerate_partitions(n - 1):
                for p in theorem4_bijection(lam, rho).pairs:
                    digest.update(repr((p.mu_tableau, p.removed_symbol, p.rho_tableau,
                                        p.gamma_weight, p.canonical)).encode())
        assert digest.hexdigest() == CERTIFICATE_DIGESTS[n]

    @pytest.mark.parametrize("lam, rho", [
        ((2, 3), (2, 2)),  # lam not a partition
        ((3, 2), (2, 1, 1, 0)),  # rho with a zero part
        ((3, 2), (1, 2, 1)),
    ])
    def test_rejects_non_partitions_at_entry(self, monkeypatch, lam, rho):
        monkeypatch.setattr(tableaux, "_ssyt", None)  # nothing may be listed
        with pytest.raises(ValueError, match="parts must be"):
            theorem4_bijection(lam, rho)

    def test_rejects_non_integer_parts(self, monkeypatch):
        monkeypatch.setattr(tableaux, "_ssyt", None)  # nothing may be listed
        with pytest.raises(ValueError, match="^lam must have integer parts"):
            theorem4_bijection((2.6, 1), (2,))  # else certified as (2, 1)

    def test_size_cap_checked_before_listing(self, monkeypatch):
        monkeypatch.setenv("YOUNGLAB_MAX_N", "5")
        monkeypatch.setattr(tableaux, "_ssyt", None)
        with pytest.raises(LimitError):
            theorem4_bijection((3, 2, 1), (3, 2))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            theorem4_bijection((3, 2), (3, 2))


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
