from fractions import Fraction

import pytest

from oracles import rref_oracle
from younglab.errors import SelfCheckError
from younglab.linsys import (
    build_flow_instance,
    build_system3,
    polymorphism_feasibility,
    statement1_check,
    verify_witness,
)
from younglab.partitions import (
    bar,
    enumerate_partitions,
    predecessors,
)


class TestBuildSystem3:
    def test_single_row(self):
        system = build_system3((5,))
        assert system.row_index == ((4,),)
        assert system.col_index == ((5,),)
        assert system.matrix.entries == ((1,),)

    def test_2_1_1(self):
        system = build_system3((2, 1, 1))
        assert system.row_index == ((3,), (2, 1), (1, 1, 1))
        assert system.col_index == ((4,), (3, 1), (2, 2), (2, 1, 1))
        assert system.matrix.rows == 3 and system.matrix.cols == 4

    def test_2_2(self):
        system = build_system3((2, 2))
        assert system.row_index == ((3,), (2, 1))
        assert system.col_index == ((4,), (3, 1), (2, 2))
        assert [list(r) for r in system.matrix.entries] == [[1, 1, 0], [0, 1, 1]]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_entries_are_cover_indicators_and_no_zero_column(self, n):
        for lam in enumerate_partitions(n):
            system = build_system3(lam)
            for i, rho in enumerate(system.row_index):
                for j, mu in enumerate(system.col_index):
                    expected = rho in {g for g, _ in predecessors(mu)}
                    assert system.matrix.entries[i][j] == (1 if expected else 0)
            for j in range(system.matrix.cols):
                assert any(
                    system.matrix.entries[i][j] for i in range(system.matrix.rows)
                )


class TestStatement1:
    def test_single_row_all_true(self):
        report = statement1_check((6,))
        assert report.bar_bijective and report.square and report.unipotent
        assert report.kernel_dim == 0

    @pytest.mark.parametrize("n", range(2, 11))
    def test_strict_half_first_row_is_bijective(self, n):
        # 2*lam_1 > n forces every dominating shape to shorten in row 1
        for lam in enumerate_partitions(n):
            if 2 * lam[0] > n:
                report = statement1_check(lam)
                assert report.bar_bijective
                assert report.square and report.unipotent
                assert report.kernel_dim == 0

    def test_boundary_2_2_is_not_bijective(self):
        # first row exactly half: (3,1) and (2,2) both shorten to (2,1),
        # the index sets have sizes 3 and 2, and the kernel is a line
        report = statement1_check((2, 2))
        assert not report.bar_bijective
        assert not report.square
        assert report.kernel_dim == 1

    @pytest.mark.parametrize("n", range(2, 11))
    def test_bijective_implies_square_unipotent_zero_kernel(self, n):
        for lam in enumerate_partitions(n):
            report = statement1_check(lam)
            if report.bar_bijective:
                assert report.square
                assert report.unipotent
                assert report.kernel_dim == 0

    @pytest.mark.parametrize("n", range(2, 11))
    def test_kernel_dim_is_columns_minus_oracle_rank(self, n):
        for lam in enumerate_partitions(n):
            matrix = build_system3(lam).matrix
            _, oracle_rank, _ = rref_oracle(matrix.entries, matrix.cols)
            assert statement1_check(lam).kernel_dim == matrix.cols - oracle_rank

    @pytest.mark.parametrize("n", range(2, 9))
    def test_index_sizes_match_dominance_counts(self, n):
        from younglab.partitions import dominates

        def h(lam):
            return sum(1 for mu in enumerate_partitions(sum(lam)) if dominates(mu, lam))

        for lam in enumerate_partitions(n):
            system = build_system3(lam)
            assert len(system.row_index) == h(bar(lam))
            assert len(system.col_index) == h(lam)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_index_sets_are_closed_under_the_graph_moves(self, n):
        # every cover of a column shape is a row, and adding a cell in the
        # topmost addable row of a row shape lands back among the columns
        from younglab.partitions import add_cell, addable_rows, dominance_upset

        for lam in enumerate_partitions(n):
            system = build_system3(lam)
            rows, cols = set(system.row_index), set(system.col_index)
            for mu in cols:
                assert {g for g, _ in predecessors(mu)} <= rows
            for rho in rows:
                assert add_cell(rho, addable_rows(rho)[0]) in cols
            union = set()
            for gamma, _ in predecessors(system.lam):
                union |= set(dominance_upset(gamma))
            assert union == rows


class TestPolymorphism:
    def test_n2_witness(self):
        report = polymorphism_feasibility(2)
        assert report["feasible"]
        assert report["witness"] == {
            ((1,), (2,)): Fraction(1, 2),
            ((1,), (1, 1)): Fraction(1, 2),
        }

    def test_n3_feasible_with_valid_witness(self):
        report = polymorphism_feasibility(3)
        assert report["feasible"]
        instance = build_flow_instance(3)
        assert verify_witness(instance, report["witness"])

    def test_hand_witness_n3_accepted(self):
        instance = build_flow_instance(3)
        witness = {
            ((2,), (3,)): Fraction(1, 3),
            ((2,), (2, 1)): Fraction(1, 6),
            ((1, 1), (2, 1)): Fraction(1, 6),
            ((1, 1), (1, 1, 1)): Fraction(1, 3),
        }
        assert verify_witness(instance, witness)

    def test_bad_witnesses_rejected(self):
        instance = build_flow_instance(3)
        assert not verify_witness(instance, {((2,), (3,)): Fraction(1, 2)})
        assert not verify_witness(
            instance, {((1, 1), (3,)): Fraction(1, 2)}  # not a covering pair
        )

    def test_wrong_column_sum_rejected(self):
        # every row sums to 1/2, (3) gets its 1/3, but (2,1) gets 1/2 and
        # (1,1,1) only 1/6
        instance = build_flow_instance(3)
        witness = {
            ((2,), (3,)): Fraction(1, 3),
            ((2,), (2, 1)): Fraction(1, 6),
            ((1, 1), (2, 1)): Fraction(1, 3),
            ((1, 1), (1, 1, 1)): Fraction(1, 6),
        }
        assert not verify_witness(instance, witness)

    def test_negative_entry_rejected_though_sums_balance(self):
        # alternately add and subtract t round the 6-cycle
        # (3,1)-(3,2)-(2,2)-(2,2,1)-(2,1,1)-(3,1,1)-(3,1) of the cover graph:
        # every row and column sum stays right, but the unused edge
        # (2,1,1)-(2,2,1) goes negative
        instance = build_flow_instance(5)
        witness = dict(polymorphism_feasibility(5)["witness"])
        assert verify_witness(instance, witness)
        cycle = [((3, 1), (3, 2)), ((2, 2), (3, 2)), ((2, 2), (2, 2, 1)),
                 ((2, 1, 1), (2, 2, 1)), ((2, 1, 1), (3, 1, 1)), ((3, 1), (3, 1, 1))]
        t = Fraction(1, 35)
        for i, edge in enumerate(cycle):
            witness[edge] = witness.get(edge, 0) + (t if i % 2 == 0 else -t)
        assert witness[((2, 1, 1), (2, 2, 1))] < 0
        for g in instance.left:
            assert sum(v for (a, _), v in witness.items() if a == g) == instance.supply
        for m in instance.right:
            assert sum(v for (_, b), v in witness.items() if b == m) == instance.demand
        assert not verify_witness(instance, witness)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_sweep_feasible_and_verified(self, n):
        report = polymorphism_feasibility(n)
        assert report["feasible"]
        assert verify_witness(build_flow_instance(n), report["witness"])

    def test_failed_witness_check_raises(self, monkeypatch):
        import younglab.linsys as linsys

        monkeypatch.setattr(linsys, "verify_witness", lambda instance, witness: False)
        with pytest.raises(SelfCheckError):
            polymorphism_feasibility(3)

    def test_instance_mass_balance(self):
        for n in range(2, 10):
            instance = build_flow_instance(n)
            assert instance.supply * len(instance.left) == 1
            assert instance.demand * len(instance.right) == 1
