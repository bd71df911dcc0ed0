import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from younglab.characters import perm_character
from younglab.errors import (
    InvalidFillingError,
    LimitError,
    NotInvariantError,
    SelfCheckError,
    SizeMismatchError,
)
import younglab.exactla as exactla
import younglab.forms as forms
from younglab.exactla import RationalMatrix, Subspace, kernel, rank, rref
from younglab.forms import (
    Form,
    _derivative_matrix,
    _independent,
    d_kernel_dim,
    difference_product_generators,
    elementary_symmetric,
    example4_check,
    form_to_vector,
    format_form,
    monomial_action_character,
    restricted_character,
    span_of_forms,
    specht_module,
    specht_poly,
    squarefree_monomials,
    statement2_check,
    theorem5_check,
    two_row_decomposition,
    two_row_partition,
    x_monomials,
)
from younglab.partitions import enumerate_partitions, standard_count
from younglab.sweeps import theorem5_passes, two_row_passes
from younglab.tableaux import enumerate_standard

from oracles import (
    act,
    all_permutations,
    compose,
    degree,
    identity,
    difference_product_oracle,
    pairing_generators_oracle,
    restricted_character_oracle,
    span_rank_oracle,
    sparse_rows,
    specht_product_oracle,
    squarefree_oracle,
)


def prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def random_form(rng, n, nterms=4, max_exp=3):
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[m] = Fraction(rng.randint(-5, 5))
    return Form(n, terms)


class TestFormArithmetic:
    def test_add_sub_cancel(self):
        rng = random.Random(1)
        f = random_form(rng, 3)
        assert not (f - f)
        assert f + Form.zero(3) == f

    def test_product_linear_factors(self):
        x1, x2 = Form.variable(2, 1), Form.variable(2, 2)
        square = (x1 - x2) * (x1 + x2)
        assert square == x1 * x1 - x2 * x2

    def test_derivative_is_linear(self):
        rng = random.Random(2)
        for _ in range(10):
            f, g = random_form(rng, 3), random_form(rng, 3)
            assert (f + g).derivative_sum() == f.derivative_sum() + g.derivative_sum()

    def test_derivative_leibniz(self):
        rng = random.Random(3)
        for _ in range(10):
            f, g = random_form(rng, 3, nterms=3, max_exp=2), random_form(rng, 3, nterms=3, max_exp=2)
            lhs = (f * g).derivative_sum()
            rhs = f.derivative_sum() * g + f * g.derivative_sum()
            assert lhs == rhs

    def test_derivative_kills_differences(self):
        x1, x3 = Form.variable(4, 1), Form.variable(4, 3)
        assert not (x1 - x3).derivative_sum()

    def test_float_coefficients_rejected(self):
        x1 = Form.variable(2, 1)
        with pytest.raises(TypeError):
            x1 * 0.5
        with pytest.raises(TypeError):
            0.5 * x1
        with pytest.raises(TypeError):
            Form.constant(2, 1.5)
        with pytest.raises(TypeError):
            Form.monomial(2, (1, 1), 2.0)
        with pytest.raises(TypeError):
            Form(2, {(1, 0): 1, (0, 1): 0.25})

    def test_exact_coefficients_accepted(self):
        x1 = Form.variable(2, 1)
        assert (x1 * Fraction(1, 2)).terms == {(1, 0): Fraction(1, 2)}
        assert (3 * x1).terms == {(1, 0): 3}
        assert Form.constant(2, Fraction(3, 4)).terms == {(0, 0): Fraction(3, 4)}
        # a zero coefficient is dropped whatever its type
        assert not x1 * 0.0

    def test_format(self):
        f = Form(3, {(2, 1, 0): Fraction(1), (0, 0, 1): Fraction(-3, 2)})
        assert format_form(f) == "x1^2*x2 - 3/2 * x3"
        assert format_form(Form.zero(2)) == "0"
        assert format_form(Form.constant(2, 1)) == "1"


class TestAction:
    def test_identity(self):
        rng = random.Random(4)
        f = random_form(rng, 4)
        assert act(f, identity(4)) == f

    def test_transposition_example(self):
        f = Form(2, {(2, 1): Fraction(1)})  # x1^2 x2
        swapped = act(f, (1, 0))
        assert swapped == Form(2, {(1, 2): Fraction(1)})

    def test_functorial(self):
        rng = random.Random(5)
        perms = all_permutations(4)
        for _ in range(20):
            f = random_form(rng, 4)
            s, t = rng.choice(perms), rng.choice(perms)
            assert act(f, compose(s, t)) == act(act(f, t), s)

    def test_action_permutes_monomial_set(self):
        monos = set(x_monomials((2, 1, 1), 4))
        for sigma in all_permutations(4):
            acted = {
                next(iter(act(Form.monomial(4, m), sigma).terms))
                for m in monos
            }
            assert acted == monos


class TestXMonomials:
    def test_single_row_is_constant(self):
        assert x_monomials((5,), 5) == [(0, 0, 0, 0, 0)]

    def test_column_gives_all_permutations(self):
        monos = x_monomials((1, 1, 1, 1), 4)
        assert len(monos) == 24
        assert all(sorted(m) == [0, 1, 2, 3] for m in monos)

    def test_2_1_1_gives_twelve(self):
        monos = x_monomials((2, 1, 1), 4)
        assert len(monos) == 12
        assert all(sorted(m) == [0, 0, 1, 2] for m in monos)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_count_is_multinomial(self, n):
        for lam in enumerate_partitions(n):
            expected = factorial(n) // prod(factorial(p) for p in lam)
            assert len(x_monomials(lam, n)) == expected

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            x_monomials((2, 1), 4)

    def test_failed_count_check_raises(self, monkeypatch):
        import younglab.forms as forms

        monkeypatch.setattr(forms, "_arrangements", lambda items: [])
        with pytest.raises(SelfCheckError):
            x_monomials((2, 1), 3)

    def test_limit_before_any_work(self, monkeypatch):
        def not_reached(items):
            raise AssertionError("arrangements built above the cap")

        monkeypatch.setattr(forms, "_arrangements", not_reached)
        with pytest.raises(LimitError):
            x_monomials((1,) * 7, 7)
        with pytest.raises(LimitError):
            specht_module((1,) * 7, 7)
        with pytest.raises(LimitError):
            x_monomials((1,) * 7, 8)  # the cap comes before the size check


class TestStatement2:
    def test_single_row_trivial_character(self):
        cf = monomial_action_character(x_monomials((4,), 4), 4)
        assert all(v == 1 for v in cf.values)

    def test_column_regular_character(self):
        cf = monomial_action_character(x_monomials((1, 1, 1, 1), 4), 4)
        assert cf.degree == 24
        assert all(v == 0 for rho, v in zip(cf.values, cf.values) if v != 24)
        assert cf == perm_character((1, 1, 1, 1))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_sweep(self, n):
        for lam in enumerate_partitions(n):
            assert statement2_check(lam, n)

    def test_limit(self):
        with pytest.raises(LimitError):
            statement2_check((7,), 7)


class TestSpechtPoly:
    def test_single_row_is_one(self):
        assert specht_poly(((1, 2, 3),), 3) == Form.constant(3, 1)

    def test_column_vandermonde(self):
        got = specht_poly(((1,), (2,), (3,)), 3)
        x1, x2, x3 = (Form.variable(3, i) for i in (1, 2, 3))
        assert got == (x1 - x2) * (x1 - x3) * (x2 - x3)

    def test_terms_stay_in_shape_monomials(self):
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                monos = set(x_monomials(lam, n))
                for t in enumerate_standard(lam):
                    sp = specht_poly(t, n)
                    assert set(sp.terms) <= monos

    def test_terms_stay_in_shape_monomials_for_scrambled_fillings(self):
        # the containment does not need increasing entries, only distinct ones
        cases = [
            ((2, 1, 1), ((2, 4), (1,), (3,)), 4),
            ((3, 2), ((5, 1, 4), (3, 2)), 5),
            ((2, 2), ((4, 2), (1, 3)), 4),
        ]
        for lam, filling, n in cases:
            sp = specht_poly(filling, n)
            assert set(sp.terms) <= set(x_monomials(lam, n))

    def test_degree(self):
        from younglab.partitions import conjugate

        for lam in enumerate_partitions(5):
            cols = conjugate(lam)
            expected = sum(c * (c - 1) // 2 for c in cols)
            t = []
            counter = 1
            for part in lam:
                t.append(tuple(range(counter, counter + part)))
                counter += part
            sp = specht_poly(tuple(t), 5)
            assert degree(sp) == expected

    @pytest.mark.parametrize("n", range(1, 8))
    def test_term_by_term_expansion_matches_the_merging_product(self, n):
        for lam in enumerate_partitions(n):
            for t in enumerate_standard(lam):
                assert specht_poly(t, n) == specht_product_oracle(t, n), t
        scrambled = ((5, 1, 4), (3, 2)), ((2, 4), (1,), (3,))
        assert all(specht_poly(t, 5) == specht_product_oracle(t, 5) for t in scrambled)

    def test_rejects_repeats(self):
        with pytest.raises(InvalidFillingError):
            specht_poly(((1, 1), (2,)), 3)

    @pytest.mark.parametrize("filling", [
        ((1,), (2, 3)), ((1, 2), (3,), (4, 5)), ((1, 2), ()), ((), (1,)),
    ])
    def test_rejects_rows_that_grow_or_are_empty(self, filling):
        # a longer lower row would lose the cells right of the first row
        with pytest.raises(InvalidFillingError):
            specht_poly(filling, 5)


class TestTheorem5:
    def test_2_1_1(self):
        report = theorem5_check((2, 1, 1), 4)
        assert report["rank"] == 3
        assert report["independent"]
        assert report["kernel_matches"]
        assert report["character_matches"]

    def test_single_row_kernel_is_everything(self):
        report = theorem5_check((4,), 4)
        assert report["rank"] == 1
        assert report["d_kernel_dim"] == 1
        assert report["kernel_matches"]

    def test_2_2(self):
        report = theorem5_check((2, 2), 4)
        assert report["rank"] == 2 == standard_count((2, 2))
        assert report["kernel_matches"] and report["character_matches"]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_sweep(self, n):
        for lam in enumerate_partitions(n):
            report = theorem5_check(lam, n)
            assert report["independent"]
            assert report["kernel_matches"]
            assert report["character_matches"]

    def test_six_cells_all_columns(self):
        # the sign representation: one Specht polynomial, the Vandermonde
        # product, spans the shift-invariant part of the 720 monomials
        report = theorem5_check((1,) * 6, 6)
        assert report["rank"] == 1 == report["d_kernel_dim"]
        assert report["independent"]
        assert report["kernel_matches"]
        assert report["character_matches"]

    def test_limit(self):
        with pytest.raises(LimitError):
            theorem5_check((7,), 7)

    def test_only_its_own_cap_applies(self, monkeypatch):
        monkeypatch.setattr(forms, "STATEMENT2_MAX_N", 5)
        assert theorem5_passes(theorem5_check((3, 3), 6))
        with pytest.raises(LimitError):
            x_monomials((3, 3), 6)

    def test_limit_before_the_model(self, monkeypatch):
        calls = []
        model = forms._monomial_model

        def spy(lam):
            calls.append(lam)
            return model(lam)

        monkeypatch.setattr(forms, "_monomial_model", spy)
        monkeypatch.setattr(forms, "THEOREM5_MAX_N", 5)
        with pytest.raises(LimitError):
            theorem5_check((3, 3), 6)
        assert calls == []
        assert theorem5_passes(theorem5_check((2, 1), 3))
        assert calls == [(2, 1)]

    def test_specht_span_invariant_under_action(self):
        for lam in enumerate_partitions(4):
            space = specht_module(lam, 4)
            index = {m: i for i, m in enumerate(space.ambient)}
            for sigma in all_permutations(4):
                for t in enumerate_standard(lam):
                    moved = act(specht_poly(t, 4), sigma)
                    vec = form_to_vector(moved, index)
                    assert vec in space.subspace


def full_ambient(monomials, n):
    return span_of_forms([Form.monomial(n, m) for m in monomials], monomials)


class TestSpanOfForms:
    def test_term_outside_the_ambient_raises(self):
        ambient = x_monomials((2, 1), 3)
        index = {m: i for i, m in enumerate(ambient)}
        outside = Form.monomial(3, (2, 0, 0))
        with pytest.raises(SizeMismatchError):
            span_of_forms([Form.monomial(3, ambient[0]), outside], ambient)
        with pytest.raises(SizeMismatchError):
            form_to_vector(outside + Form.monomial(3, ambient[1]), index)

    def test_rows_are_the_sparse_coefficients(self):
        ambient = x_monomials((2, 1), 3)
        f = Form.monomial(3, ambient[2], 3) - Form.monomial(3, ambient[0])
        assert form_to_vector(f, {m: i for i, m in enumerate(ambient)}) == {2: 3, 0: -1}
        assert span_of_forms([f], ambient).subspace.rows == ({0: 1, 2: -3},)

    def test_form_checks_build_no_dense_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense RationalMatrix was built")

        monkeypatch.setattr(exactla.RationalMatrix, "__init__", refuse)
        report = example4_check()
        assert (report["direct_sum"] and report["parity_assignments"] and report["c_relation"]
                and all(report["invariant"].values())
                and all(report["characters_match"].values()))
        assert theorem5_passes(theorem5_check((2, 2, 1), 5))
        assert two_row_passes(two_row_decomposition(6, 3))


class TestRestrictedCharacter:
    def test_transposition_alone_is_not_enough(self):
        # span{x1 + x2} is fixed by (1 2) but moved by (1 2 3)
        f = Form.variable(3, 1) + Form.variable(3, 2)
        assert act(f, (1, 0, 2)) == f
        space = span_of_forms([f], x_monomials((2, 1), 3))
        with pytest.raises(NotInvariantError):
            restricted_character(space, 3)

    def test_long_cycle_alone_is_not_enough(self):
        # (1 2 3 4) sends x1 - x2 + x3 - x4 to its negative; (1 2) moves it
        x = [Form.variable(4, i) for i in range(1, 5)]
        f = x[0] - x[1] + x[2] - x[3]
        assert act(f, (1, 2, 3, 0)) == -f
        space = span_of_forms([f], x_monomials((3, 1), 4))
        with pytest.raises(NotInvariantError):
            restricted_character(space, 4)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_full_ambient_matches_fixed_monomial_count(self, n):
        for lam in enumerate_partitions(n):
            monos = x_monomials(lam, n)
            assert restricted_character(full_ambient(monos, n), n) == (
                monomial_action_character(monos, n)
            )

    @pytest.mark.parametrize("n", range(1, 8))
    def test_squarefree_ambient_matches_fixed_monomial_count(self, n):
        for k in range(n + 1):
            monos = squarefree_monomials(n, k)
            assert restricted_character(full_ambient(monos, n), n) == (
                monomial_action_character(monos, n)
            )

    def test_values_are_int(self):
        for lam in enumerate_partitions(4):
            chi = restricted_character(specht_module(lam, 4), 4)
            assert all(type(v) is int for v in chi.values)


def specht_module_forms(lam, n):
    return [specht_poly(t, n) for t in enumerate_standard(lam)]


# the trivial line and the single monomials join each case's invariant blocks
INVARIANT_BLOCKS = [
    (n, ambient, blocks + [
        [Form(n, dict.fromkeys(ambient, 1))],
        [Form.monomial(n, m) for m in ambient],
    ]) for n, ambient, blocks in [
        (2, x_monomials((1, 1), 2), [specht_module_forms((1, 1), 2)]),
        (3, x_monomials((2, 1), 3), [specht_module_forms((2, 1), 3)]),
        (4, x_monomials((2, 1, 1), 4), [specht_module_forms((2, 1, 1), 4)]),
        (4, squarefree_monomials(4, 2), [
            difference_product_generators(4, l, 2) for l in range(3)
        ]),
    ]
]
INVARIANT_BLOCK_IDS = ["x(1,1)", "x(2,1)", "x(2,1,1)", "squarefree(4,2)"]


class TestTraceOracle:
    """`restricted_character` against `restricted_character_oracle`, which
    acts on a basis by one explicit permutation per class and solves for
    the coordinates of the images by Fraction Gauss-Jordan, on reducible
    invariant spans as well as irreducible ones."""

    @pytest.mark.parametrize("n,ambient,blocks", INVARIANT_BLOCKS, ids=INVARIANT_BLOCK_IDS)
    def test_every_union_of_invariant_blocks(self, n, ambient, blocks):
        for r in range(1, len(blocks) + 1):
            for chosen in combinations(blocks, r):
                spanning = [f for block in chosen for f in block]
                assert restricted_character(span_of_forms(spanning, ambient), n) == (
                    restricted_character_oracle(spanning, n))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_sums_of_two_row_components(self, n):
        for k in range(1, n // 2 + 1):
            ambient = squarefree_monomials(n, k)
            components = [difference_product_generators(n, l, k) for l in range(k + 1)]
            for r in range(2, k + 2):
                for chosen in combinations(components, r):
                    spanning = [f for component in chosen for f in component]
                    assert restricted_character(span_of_forms(spanning, ambient), n) == (
                        restricted_character_oracle(spanning, n)), (k, r)


class TestInvarianceAgainstOracle:
    """`restricted_character` raises NotInvariantError exactly when some
    permutation of all n! moves a spanning form out of the span.  The
    oracle acts by `act` and compares ranks by Fraction Gauss-Jordan
    elimination; it uses neither the generators of S_n nor the library's
    elimination."""

    @staticmethod
    def invariant_by_oracle(spanning, space, n):
        moved = [act(f, sigma) for sigma in all_permutations(n) for f in spanning]
        return span_rank_oracle(spanning + moved) == span_rank_oracle(spanning)

    @staticmethod
    def random_span(rng, n, ambient, blocks):
        """1-3 random integer combinations of the forms of one block, a
        quarter of them with one ambient monomial added."""
        block = rng.choice(blocks)
        spanning = []
        for _ in range(rng.randint(1, 3)):
            f = sum((rng.randint(-2, 2) * g for g in block), Form.zero(n))
            if rng.random() < 0.25:
                f = f + Form.monomial(n, rng.choice(ambient), rng.choice((-1, 1)))
            spanning.append(f)
        return spanning

    @pytest.mark.parametrize("n,ambient,blocks", INVARIANT_BLOCKS, ids=INVARIANT_BLOCK_IDS)
    def test_raises_exactly_when_some_permutation_moves_the_span(self, n, ambient, blocks):
        rng = random.Random(f"invariance {n} {len(ambient)}")
        outcomes = set()
        for _ in range(60):
            spanning = self.random_span(rng, n, ambient, blocks)
            space = span_of_forms(spanning, ambient)
            invariant = self.invariant_by_oracle(spanning, space, n)
            outcomes.add(invariant)
            if invariant:
                restricted_character(space, n)
            else:
                with pytest.raises(NotInvariantError):
                    restricted_character(space, n)
        assert outcomes == {True, False}


class TestTwoRow:
    def test_k0_trivial(self):
        report = two_row_decomposition(5, 0)
        assert report["dims"] == [1]
        assert report["dims_match"] and report["direct_sum"]

    def test_n4_k2_dims(self):
        report = two_row_decomposition(4, 2)
        assert report["dims"] == [1, 3, 2]
        assert sum(report["dims"]) == comb(4, 2)
        assert report["dims_match"]
        assert report["characters_match"]
        assert report["top_is_shift_invariant"]

    @pytest.mark.parametrize("n,k", [
        (n, k) for n in range(2, 7) for k in range(0, n // 2 + 1)
    ] + [(9, 4), (10, 5)])  # and the top of the cap
    def test_sweep_small(self, n, k):
        report = two_row_decomposition(n, k)
        assert report["dims_match"]
        assert report["direct_sum"]
        assert report["pairwise_zero"]
        assert report["characters_match"]
        if n % 2 == 0 and k == n // 2:
            assert report["top_is_shift_invariant"]

    def test_span_matches_all_pairings_oracle(self):
        for n in range(1, 9):
            for k in range(n // 2 + 1):
                ambient = squarefree_monomials(n, k)
                for l in range(k + 1):
                    library = span_of_forms(difference_product_generators(n, l, k), ambient)
                    oracle = span_of_forms(pairing_generators_oracle(n, l, k), ambient)
                    assert library.subspace == oracle.subspace, (n, k, l)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_generators_match_the_merging_product(self, n):
        for k in range(n // 2 + 1):
            for l in range(k + 1):
                assert difference_product_generators(n, l, k) == \
                    difference_product_oracle(n, l, k), (n, l, k)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_generator_per_standard_tableau(self, n):
        for k in range(n // 2 + 1):
            for l in range(k + 1):
                generators = difference_product_generators(n, l, k)
                assert len(generators) == standard_count(two_row_partition(n, l))

    @staticmethod
    def patched_report(monkeypatch, n, k, replace):
        """The report with the generators of component l taken from
        replace(l), which returns a component index or None for none."""
        original = forms.difference_product_generators

        def generators(n_, l, k_):
            source = replace(l)
            return [] if source is None else original(n_, source, k_)

        monkeypatch.setattr(forms, "difference_product_generators", generators)
        return two_row_decomposition(n, k)

    def test_repeated_component_is_not_pairwise_zero(self, monkeypatch):
        report = self.patched_report(monkeypatch, 6, 2, lambda l: 0 if l == 1 else l)
        assert report["dims"] == [1, 1, 9]
        assert report["direct_sum"] is False
        assert report["pairwise_zero"] is False

    def test_empty_component_is_pairwise_zero_but_not_direct(self, monkeypatch):
        report = self.patched_report(monkeypatch, 6, 2, lambda l: None if l == 1 else l)
        assert report["dims"] == [1, 0, 9]
        assert report["direct_sum"] is False
        assert report["pairwise_zero"] is True

    def test_top_outside_kernel_is_not_shift_invariant(self, monkeypatch):
        # the (5,1) component has the dimension of ker D but is not inside it
        report = self.patched_report(monkeypatch, 6, 3, lambda l: 1 if l == 3 else l)
        assert report["dims"] == [1, 5, 9, 5]
        assert report["top_is_shift_invariant"] is False

    def test_top_below_kernel_dimension_is_not_shift_invariant(self, monkeypatch):
        # an empty top is killed by D but is smaller than its kernel
        report = self.patched_report(monkeypatch, 4, 2, lambda l: None if l == 2 else l)
        assert report["dims"] == [1, 3, 0]
        assert report["top_is_shift_invariant"] is False

    def test_two_row_partition_names(self):
        assert two_row_partition(6, 0) == (6,)
        assert two_row_partition(6, 3) == (3, 3)

    def test_limits(self):
        with pytest.raises(LimitError):
            two_row_decomposition(11, 1)
        with pytest.raises(SizeMismatchError):
            two_row_decomposition(6, 4)
        with pytest.raises(SizeMismatchError):
            two_row_decomposition(0, 0)

    def test_square_free_basis(self):
        monos = squarefree_monomials(5, 2)
        assert len(monos) == comb(5, 2)
        assert all(sum(m) == 2 and max(m) == 1 for m in monos)

    @pytest.mark.parametrize("n", range(11))
    def test_square_free_basis_is_one_monomial_per_subset(self, n):
        for k in range(n + 2):
            assert squarefree_monomials(n, k) == squarefree_oracle(n, k), k

    def test_elementary_symmetric(self):
        e2 = elementary_symmetric(4, [1, 2, 3], 2)
        x = [Form.variable(4, i) for i in range(1, 5)]
        assert e2 == x[0] * x[1] + x[0] * x[2] + x[1] * x[2]


class TestExample4:
    def test_full_report(self):
        report = example4_check()
        assert report["dims"] == {
            "trivial": 1, "pair": 2, "specht": 3,
            "even_natural": 3, "odd_natural": 3,
        }
        assert all(report["invariant"].values())
        assert all(report["characters_match"].values())
        assert report["direct_sum"]
        assert report["even_odd_dims"] == (6, 6)
        assert report["parity_assignments"]
        assert report["c_relation"]


class TestIntegerCoefficients:
    """Every form the library builds is integral and keeps int coefficients."""

    @staticmethod
    def all_int(forms):
        return all(type(c) is int for f in forms for c in f.terms.values())

    def test_specht_polys(self):
        from younglab.tableaux import enumerate_standard

        for lam in enumerate_partitions(5):
            assert self.all_int(specht_poly(t, 5) for t in enumerate_standard(lam))

    def test_difference_products(self):
        for n in range(1, 7):
            for k in range(n // 2 + 1):
                for l in range(k + 1):
                    assert self.all_int(difference_product_generators(n, l, k))

    def test_elementary_symmetric(self):
        assert self.all_int(
            elementary_symmetric(5, [1, 2, 4, 5], p) for p in range(5)
        )


class TestNoFraction:
    """The form layer and its elimination compute in ints: no Fraction is
    made while they run, with the character tables they compare with."""

    @pytest.fixture
    def no_fraction(self, monkeypatch):
        def refuse(cls, *args, **kwargs):
            raise AssertionError("a Fraction was made")

        monkeypatch.setattr(Fraction, "__new__", refuse)

    def test_the_guard_refuses_a_fraction(self, no_fraction):
        with pytest.raises(AssertionError, match="a Fraction was made"):
            Fraction(1, 2)

    def test_rank_rref_and_kernel_of_int_rows(self, no_fraction):
        rows = [{1: 2, 3: 3}, {0: 4, 1: 2}, {0: 4, 1: 4, 3: 3}]
        assert rank(rows) == 2
        assert rref(rows) == {0: {0: 4, 3: -3}, 1: {1: 2, 3: 3}}
        assert kernel(RationalMatrix([[1, 2, 3], [2, 4, 7]])).rows == ({0: 2, 1: -1},)
        assert Subspace(4, rows) == Subspace(4, rows[::-1])

    def test_two_row_decomposition(self, no_fraction):
        assert two_row_passes(two_row_decomposition(8, 4))

    def test_theorem5(self, no_fraction):
        assert all(theorem5_passes(theorem5_check(lam, 5)) for lam in enumerate_partitions(5))

    def test_example4_and_statement2(self, no_fraction):
        assert example4_check()["direct_sum"]
        assert all(statement2_check(lam, 5) for lam in enumerate_partitions(5))


def dense_derivative_matrix(ambient, n) -> RationalMatrix:
    """The sparse rows of `_derivative_matrix` laid out densely for `kernel`."""
    cols = range(len(ambient))
    return RationalMatrix(
        [[row.get(j, 0) for j in cols] for row in _derivative_matrix(ambient, n)],
        cols=len(ambient),
    )


class TestDKernel:
    def test_derivative_matrix_rows_in_first_seen_order(self):
        # D(x1 x2) = x2 + x1 and D(x1 x3) = x3 + x1 give the rows x2, x1, x3
        ambient = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
        assert _derivative_matrix(ambient, 3) == [
            {0: 1, 2: 1}, {0: 1, 1: 1}, {1: 1, 2: 1},
        ]

    def test_derivative_matrix_of_constants_has_no_rows(self):
        assert _derivative_matrix([(0, 0)], 2) == []
        assert d_kernel_dim([(0, 0)], 2) == 1

    def test_kernel_space_matches_specht_for_2_1_1(self):
        # canonical RREF equality: the Specht span is exactly ker D
        ambient = x_monomials((2, 1, 1), 4)
        dk = kernel(dense_derivative_matrix(ambient, 4))
        sp = specht_module((2, 1, 1), 4)
        assert dk == sp.subspace

    @pytest.mark.parametrize("n", range(1, 6))
    def test_dim_matches_kernel_space(self, n):
        for lam in enumerate_partitions(n):
            ambient = x_monomials(lam, n)
            assert d_kernel_dim(ambient, n) == kernel(dense_derivative_matrix(ambient, n)).dim


class TestIndependent:
    def test_planes_sharing_an_axis_are_not_independent(self):
        xy = Subspace(3, [{0: 1}, {1: 1}])
        yz = Subspace(3, [{1: 1}, {2: 1}])
        assert not _independent([xy, yz])

    def test_distinct_axes_are_independent(self):
        x = Subspace(3, [{0: 1}])
        y = Subspace(3, [{1: 2}])
        assert _independent([x, y])
        assert _independent([x, y, Subspace(3, [{0: 1, 1: 1, 2: 1}])])
        assert not _independent([x, y, Subspace(3, [{0: 1, 1: 1}])])

    def test_zero_space_is_independent_of_anything(self):
        zero = Subspace(3, [])
        xy = Subspace(3, [{0: 1}, {1: 1}])
        assert _independent([zero, xy])
        assert _independent([zero, zero])
        assert _independent([])

    def test_sharing_a_vector_is_not_independent(self):
        rng = random.Random(21)
        for _ in range(15):
            d = rng.randint(2, 5)
            a = Subspace(d, sparse_rows(
                [[rng.randint(-3, 3) for _ in range(d)] for _ in range(2)]))
            if not a.dim:
                continue
            # positive weights on the RREF rows keep the pivots, so it is nonzero
            weights = [rng.randint(1, 3) for _ in range(a.dim)]
            shared = {}
            for w, row in zip(weights, a.rows):
                for j, x in row.items():
                    shared[j] = shared.get(j, 0) + w * x
            other = sparse_rows([[rng.randint(-3, 3) for _ in range(d)]])[0]
            assert not _independent([a, Subspace(d, [shared, other])])
