from fractions import Fraction
from math import factorial

import pytest

from oracles import (
    class_size_oracle,
    double_coset_count,
    ind_sgn_coset_oracle,
    murnaghan_nakayama_oracle,
    pairing_oracle,
    perm_character_placement_oracle,
    perm_character_tabloid_oracle,
    power_sum_expansion_oracle,
    sign_character,
    trivial_character,
)
from younglab import characters
from younglab.characters import (
    ClassFunction,
    _multiplicities,
    class_size,
    class_types,
    conjugate_twist_check,
    eq1_check,
    ind_sgn_character,
    inner,
    irreducible_characters,
    lemma1_check,
    multiplicity_table,
    perm_character,
    restrict,
    sign_twist,
    theorem1_check,
    theorem1_components,
)
from younglab.errors import DegreeMismatchError, OrthogonalizationError
from younglab.forms import x_monomials
from younglab.linsys import build_system3, statement1_check
from younglab.partitions import (
    conjugate,
    enumerate_partitions,
    standard_count,
)
from younglab.sweeps import run_sweep
from younglab.tableaux import eq2_check, kostka


def prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


class TestClassSize:
    def test_identity_class(self):
        for n in range(1, 8):
            assert class_size((1,) * n) == 1

    def test_long_cycles(self):
        for n in range(1, 8):
            assert class_size((n,)) == factorial(n - 1)

    def test_transpositions_in_degree_4(self):
        assert class_size((2, 1, 1)) == 6
        assert class_size((2, 1, 1)) == class_size_oracle((2, 1, 1))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_enumeration(self, n):
        for rho in class_types(n):
            assert class_size(rho) == class_size_oracle(rho)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sizes_sum_to_group_order(self, n):
        assert sum(class_size(rho) for rho in class_types(n)) == factorial(n)


class TestPermCharacter:
    def test_degree_is_multinomial(self):
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                expected = factorial(n) // prod(factorial(p) for p in lam)
                assert perm_character(lam).degree == expected

    def test_single_row_is_trivial(self):
        for n in range(1, 8):
            assert perm_character((n,)) == trivial_character(n)

    def test_hand_value(self):
        assert perm_character((3, 1))((2, 1, 1)) == 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_tabloid_oracle(self, n):
        for lam in enumerate_partitions(n):
            assert perm_character(lam) == perm_character_tabloid_oracle(lam)

    @pytest.mark.parametrize("n", range(0, 15))
    def test_matches_placement_oracle(self, n):
        for lam in enumerate_partitions(n):
            assert perm_character(lam) == perm_character_placement_oracle(lam)

    def test_one_cache_per_degree(self):
        # perm_character is a lookup into the degree's table, not a cache
        assert not hasattr(perm_character, "cache_info")
        for lam in enumerate_partitions(6):
            assert perm_character(lam) is characters._perm_characters(6)[lam]
        assert list(characters._perm_characters(6)) == list(enumerate_partitions(6))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_power_sum_coefficients(self, n):
        shapes = enumerate_partitions(n)
        for rho in shapes:
            for k in range(1, n + 1):
                poly = power_sum_expansion_oracle(rho, k)
                for lam in shapes:
                    if len(lam) == k:
                        assert perm_character(lam)(rho) == poly.get(lam, 0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_pairings_count_double_cosets(self, n):
        shapes = enumerate_partitions(n)
        for lam in shapes:
            for mu in shapes:
                pairing = inner(perm_character(lam), perm_character(mu))
                assert pairing == double_coset_count(lam, mu)


class TestSignTwist:
    def test_involution(self):
        f = perm_character((3, 2))
        assert sign_twist(sign_twist(f)) == f

    def test_column_gives_sign(self):
        for n in range(0, 9):
            assert ind_sgn_character((1,) * n) == sign_character(n)

    def test_degrees_after_twist(self):
        # degree of the column-induced module is n!/prod(conjugate parts!)
        assert ind_sgn_character((3, 1)).degree == 12
        assert ind_sgn_character((2, 1, 1)).degree == 4

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_coset_oracle(self, n):
        for lam in enumerate_partitions(n):
            assert ind_sgn_character(lam) == ind_sgn_coset_oracle(lam)


class TestInner:
    def test_trivial_norm(self):
        for n in range(1, 8):
            psi = perm_character((n,))
            assert inner(psi, psi) == 1

    def test_trivial_occurs_once_in_every_permutation_module(self):
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                assert inner(perm_character(lam), trivial_character(n)) == 1

    def test_degree_3_pairing(self):
        psi = perm_character((2, 1))
        assert inner(psi, sign_twist(psi)) == 1

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            inner(trivial_character(3), trivial_character(4))

    def test_non_integer_multiplicity_raises(self):
        half = ClassFunction(2, (1, 0))
        assert inner(trivial_character(2), half) == Fraction(1, 2)
        with pytest.raises(OrthogonalizationError,
                           match=r"^non-integer multiplicity 1/2 of \(2,\)$"):
            _multiplicities(trivial_character(2))((2,), half)


class TestTheorem1:
    def test_single_row(self):
        for n in range(1, 8):
            assert theorem1_check((n,)) == 1

    def test_2_1_1(self):
        assert theorem1_check((2, 1, 1)) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sweep_with_unique_common_component(self, n):
        for lam in enumerate_partitions(n):
            assert theorem1_check(lam) == 1
            assert theorem1_components(lam) == [(lam, 1, 1)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_components_match_pairing_oracle(self, n):
        chis = irreducible_characters(n)
        for lam in enumerate_partitions(n):
            psi = perm_character_tabloid_oracle(lam)
            phi = ind_sgn_coset_oracle(lam)
            common = []
            for mu, chi in chis.items():
                a, b = pairing_oracle(psi, chi), pairing_oracle(phi, chi)
                if a and b:
                    common.append((mu, a, b))
            assert common == [(lam, 1, 1)] == theorem1_components(lam)


class TestIrreducibles:
    def test_degree_3_by_hand(self):
        chis = irreducible_characters(3)
        std = chis[(2, 1)]
        assert std((1, 1, 1)) == 2
        assert std((2, 1)) == 0
        assert std((3,)) == -1

    def test_extremes(self):
        for n in range(1, 8):
            chis = irreducible_characters(n)
            assert chis[(n,)] == trivial_character(n)
            assert chis[(1,) * n] == sign_character(n)

    @pytest.mark.parametrize("n", range(0, 15))
    def test_matches_murnaghan_nakayama_oracle(self, n):
        for lam, chi in irreducible_characters(n).items():
            for rho in class_types(n):
                assert chi(rho) == murnaghan_nakayama_oracle(lam, rho)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_orthonormal_family(self, n):
        chis = irreducible_characters(n)
        for mu, f in chis.items():
            for nu, g in chis.items():
                assert inner(f, g) == (1 if mu == nu else 0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dimensions(self, n):
        chis = irreducible_characters(n)
        assert all(f.degree == standard_count(mu) for mu, f in chis.items())
        assert sum(f.degree ** 2 for f in chis.values()) == factorial(n)


class TestMultiplicities:
    def test_example_row_2_1_1(self):
        table = multiplicity_table(4)
        lam = (2, 1, 1)
        assert table((4,), lam) == 1
        assert table((3, 1), lam) == 2
        assert table((2, 2), lam) == 1
        assert table((2, 1, 1), lam) == 1
        assert table((1, 1, 1, 1), lam) == 0
        dims = sum(
            table(mu, lam) * standard_count(mu) for mu in enumerate_partitions(4)
        )
        assert dims == 12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_unitriangular_along_dominance(self, n):
        from younglab.partitions import dominates

        table = multiplicity_table(n)
        for mu in enumerate_partitions(n):
            for lam in enumerate_partitions(n):
                if mu == lam:
                    assert table(mu, lam) == 1
                elif not dominates(mu, lam):
                    assert table(mu, lam) == 0

    @pytest.mark.parametrize("n", range(1, 8))
    def test_table_matches_pairing_oracle(self, n):
        # every entry, including the zeros after lam in the frozen order
        table = multiplicity_table(n)
        chis = irreducible_characters(n)
        for lam in enumerate_partitions(n):
            psi = perm_character_tabloid_oracle(lam)
            for mu in enumerate_partitions(n):
                assert table(mu, lam) == pairing_oracle(psi, chis[mu])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_triangular_rows(self, n):
        # M(mu, lam) is stored for each mu up to lam only, ending in 1
        table = multiplicity_table(n)
        shapes = enumerate_partitions(n)
        assert table._fields == ("n", "rows", "characters")
        assert list(table.rows) == list(shapes)
        for i, lam in enumerate(shapes):
            assert len(table.rows[lam]) == i + 1
            assert table.rows[lam][-1] == 1
        p = len(shapes)
        assert sum(map(len, table.rows.values())) == p * (p + 1) // 2

    def test_characters_are_the_tables(self):
        for n in range(1, 7):
            assert irreducible_characters(n) is multiplicity_table(n).characters

    @pytest.mark.parametrize("mu, lam", [
        ((3,), (2, 1, 1)),
        ((2, 1, 1), (3,)),
        ((1, 3), (4,)),
    ])
    def test_shapes_not_of_the_degree_raise_key_error(self, mu, lam):
        with pytest.raises(KeyError):
            multiplicity_table(4)(mu, lam)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_youngs_rule(self, n):
        assert run_sweep("youngs-rule", n).status == "pass"


class TestOrthogonalizationFaults:
    """Each check of the orthogonalization fires on a faulty permutation
    character.  In degree 3, at the classes (3), (2, 1), (1, 1, 1) of sizes
    2, 3, 1, the true psi^(2, 1) is (0, 1, 3)."""

    @pytest.fixture(autouse=True)
    def fresh_tables(self):
        multiplicity_table.cache_clear()
        yield
        multiplicity_table.cache_clear()

    @pytest.mark.parametrize("values, message", [
        ((0, 0, 3), "non-integer multiplicity 1/2 of (3,)"),
        ((0, 2, 6), "non-unit norm at (2, 1)"),
        ((0, -1, -3), "bad multiplicity at ((3,), (2, 1))"),
    ], ids=["non-integer", "non-unit-norm", "negative"])
    def test_fault_raises(self, monkeypatch, values, message):
        real = characters.perm_character
        monkeypatch.setattr(
            characters, "perm_character",
            lambda lam: ClassFunction(3, values) if lam == (2, 1) else real(lam),
        )
        with pytest.raises(OrthogonalizationError) as excinfo:
            irreducible_characters(3)
        assert str(excinfo.value) == message


class TestRestriction:
    def test_single_row_both_sides_trivial(self):
        for n in range(2, 8):
            assert lemma1_check((n,))

    def test_2_2_1_coefficients(self):
        lhs = restrict(perm_character((2, 2, 1)))
        rhs = perm_character((2, 1, 1)).scaled(2) + perm_character((2, 2))
        assert lhs == rhs

    @pytest.mark.parametrize("n", range(2, 7))
    def test_sweep(self, n):
        for lam in enumerate_partitions(n):
            assert lemma1_check(lam)


class TestEq1:
    def test_example(self):
        assert eq1_check((3, 2, 1), (4, 1)) == (5, 5)

    def test_single_row(self):
        for n in range(2, 7):
            for rho in enumerate_partitions(n - 1):
                left, right = eq1_check((n,), rho)
                assert left == right
                assert left == (1 if rho == (n - 1,) else 0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_sweep_and_agreement_with_tableau_side(self, n):
        for lam in enumerate_partitions(n):
            for rho in enumerate_partitions(n - 1):
                left, right = eq1_check(lam, rho)
                assert left == right
                assert (left, right) == eq2_check(lam, rho)


class TestConjugateTwist:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_sweep(self, n):
        assert conjugate_twist_check(n)

    def test_pairing_against_conjugate_kostka(self):
        for n in range(1, 6):
            chis = irreducible_characters(n)
            for lam in enumerate_partitions(n):
                phi = ind_sgn_character(lam)
                for mu in enumerate_partitions(n):
                    assert inner(phi, chis[mu]) == kostka(
                        conjugate(mu), conjugate(lam)
                    )


@pytest.mark.parametrize("check, args, name", [
    (lemma1_check, ((1, 2),), "lam"),  # else the wrong verdict False
    (eq1_check, ((1, 2), (2,)), "lam"),  # else a bare KeyError
    (eq1_check, ((2, 1), (1, 1, 0)), "rho"),
    (theorem1_check, ((1, 2),), "lam"),  # else an IndexError
    (theorem1_components, ((1, 2),), "lam"),
    (theorem1_components, ((2, 0),), "lam"),
    (perm_character, ((-1, 2),), "lam"),  # else the value of degree 1
    (perm_character, ((1, 2),), "lam"),  # else psi^(2, 1) under a second key
    (ind_sgn_character, ((1, 2),), "lam"),  # else a bare IndexError
    (statement1_check, ((3, -1),), "lam"),  # else a report of a square system
    (statement1_check, ((2.0, 1),), "lam"),  # else a report with lam=(2.0, 1)
    (build_system3, ((1, 2),), "lam"),  # else the system of (2, 1)
    (x_monomials, ((2, 0, 1), 3), "lam"),  # else three monomials
    (standard_count, ((1, 2),), "lam"),  # else 1, cached under (1, 2)
], ids=["lemma1", "eq1-lam", "eq1-rho", "theorem1", "components", "components-zero",
        "perm-negative", "perm-increasing", "ind-sgn", "statement1", "statement1-float",
        "system3", "x-monomials", "standard-count"])
def test_rejects_non_partitions_naming_the_argument(check, args, name):
    with pytest.raises(ValueError, match=rf"^{name} must have positive"):
        check(*args)
