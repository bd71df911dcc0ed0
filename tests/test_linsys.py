import hashlib
import random
from fractions import Fraction

import pytest

from oracles import (
    dense_rows,
    dinic_oracle,
    min_cut_oracle,
    rref_oracle,
    unipotent_oracle,
)
from younglab.errors import SelfCheckError
from younglab.linsys import (
    FlowInstance,
    _Dinic,
    _node_ids,
    build_flow_instance,
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
    """The cover system as `statement1_check` builds and reports it."""

    def test_single_row(self):
        report = statement1_check((5,))
        assert report.row_index == ((4,),)
        assert report.col_index == ((5,),)
        assert report.matrix == ({0: 1},)

    def test_2_1_1(self):
        report = statement1_check((2, 1, 1))
        assert report.row_index == ((3,), (2, 1), (1, 1, 1))
        assert report.col_index == ((4,), (3, 1), (2, 2), (2, 1, 1))
        assert len(report.matrix) == 3

    def test_2_2(self):
        report = statement1_check((2, 2))
        assert report.row_index == ((3,), (2, 1))
        assert report.col_index == ((4,), (3, 1), (2, 2))
        assert report.matrix == ({0: 1, 1: 1}, {1: 1, 2: 1})

    @pytest.mark.parametrize("n", range(2, 9))
    def test_entries_are_cover_indicators_and_no_zero_column(self, n):
        for lam in enumerate_partitions(n):
            report = statement1_check(lam)
            for i, rho in enumerate(report.row_index):
                covers = {j for j, mu in enumerate(report.col_index)
                          if rho in {g for g, _ in predecessors(mu)}}
                assert report.matrix[i] == dict.fromkeys(covers, 1)
            assert set().union(*report.matrix) == set(range(len(report.col_index)))


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
    def test_unipotent_matches_the_dense_oracle(self, n):
        # both directions, bijective or not
        for lam in enumerate_partitions(n):
            report = statement1_check(lam)
            assert report.unipotent == unipotent_oracle(report)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_kernel_dim_is_columns_minus_oracle_rank(self, n):
        for lam in enumerate_partitions(n):
            report = statement1_check(lam)
            cols = len(report.col_index)
            _, oracle_rank, _ = rref_oracle(dense_rows(report), cols)
            assert report.kernel_dim == cols - oracle_rank

    @pytest.mark.parametrize("n", range(2, 9))
    def test_index_sizes_match_dominance_counts(self, n):
        from younglab.partitions import dominates

        def h(lam):
            return sum(1 for mu in enumerate_partitions(sum(lam)) if dominates(mu, lam))

        for lam in enumerate_partitions(n):
            report = statement1_check(lam)
            assert len(report.row_index) == h(bar(lam))
            assert len(report.col_index) == h(lam)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_index_sets_are_closed_under_the_graph_moves(self, n):
        # every cover of a column shape is a row, and adding a cell in the
        # topmost addable row of a row shape lands back among the columns
        from younglab.partitions import dominance_upset, successors

        for lam in enumerate_partitions(n):
            report = statement1_check(lam)
            rows, cols = set(report.row_index), set(report.col_index)
            for mu in cols:
                assert {g for g, _ in predecessors(mu)} <= rows
            for rho in rows:
                assert successors(rho)[0] in cols
            union = set()
            for gamma, _ in predecessors(report.lam):
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

    @pytest.mark.parametrize("n", ["x", None])
    def test_a_non_integer_degree_is_the_library_value_error(self, n):
        # the degree is checked before it is compared with 2
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            polymorphism_feasibility(n)

    @pytest.mark.parametrize("n", [0, 1])
    def test_a_degree_below_two_has_no_transport(self, n):
        with pytest.raises(ValueError, match=r"^need n >= 2$"):
            polymorphism_feasibility(n)

    def test_witness_keys_come_in_instance_edge_order(self):
        # the CLI prints the witness in the order it is keyed
        for n in range(2, 21):
            witness = polymorphism_feasibility(n)["witness"]
            edges = build_flow_instance(n).edges
            assert list(witness) == [edge for edge in edges if edge in witness]

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

    @pytest.mark.parametrize("n", range(2, 21))
    def test_sweep_feasible_and_verified(self, n):
        report = polymorphism_feasibility(n)
        assert report["feasible"]
        assert verify_witness(build_flow_instance(n), report["witness"])

    def test_failed_witness_check_raises(self, monkeypatch):
        import younglab.linsys as linsys

        monkeypatch.setattr(linsys, "_balanced", lambda *args: False)
        with pytest.raises(SelfCheckError):
            polymorphism_feasibility(3)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_add_edges_builds_the_network_of_repeated_add_edge(self, n):
        instance = build_flow_instance(n)
        p1, p2 = len(instance.left), len(instance.right)
        left_id, right_id = _node_ids(instance)
        sink = 1 + p1 + p2
        runs = [
            ([(0, 1 + i) for i in range(p1)], p2),
            ([(left_id[g], right_id[m]) for g, m in instance.edges], p1 * p2),
            ([(1 + p1 + j, sink) for j in range(p2)], p1),
        ]
        one_pass, one_by_one = _Dinic(sink + 1), _Dinic(sink + 1)
        for pairs, cap in runs:
            ids = one_pass.add_edges(pairs, cap)
            assert list(ids) == [one_by_one.add_edge(u, v, cap) for u, v in pairs]
        assert one_pass.head == one_by_one.head
        assert one_pass.cap == one_by_one.cap
        assert one_pass.adj == one_by_one.adj

    def test_instance_mass_balance(self):
        for n in range(2, 10):
            instance = build_flow_instance(n)
            assert instance.supply * len(instance.left) == 1
            assert instance.demand * len(instance.right) == 1

    def test_infeasible_instance_certified_by_its_residual_cut(self, monkeypatch):
        # level 2 -> 3 without the covering pair (2) -> (2,1): (2) can only
        # send through (3), whose sink arc takes 2 of its 3 units, so the
        # flow is 5 of the 6 required and the residual cut is exactly
        # source -> (1,1) plus (3) -> sink
        import younglab.linsys as linsys

        instance = FlowInstance(
            3, ((2,), (1, 1)), ((3,), (2, 1), (1, 1, 1)),
            (((2,), (3,)), ((1, 1), (2, 1)), ((1, 1), (1, 1, 1))),
            Fraction(1, 2), Fraction(1, 3),
        )
        left_id, right_id = _node_ids(instance)
        pairs = [(left_id[g], right_id[m]) for g, m in instance.edges]
        monkeypatch.setattr(linsys, "_flow_network", lambda n: (instance, pairs))
        report = polymorphism_feasibility(3)
        assert not report["feasible"] and report["witness"] is None
        assert (report["max_flow"], report["required"]) == (5, 6)
        assert report["cut"] == {
            "value": 5, "edges": [("source", (1, 1)), ((3,), "sink")],
        }


# SHA-256 over (gamma, mu, numerator, denominator) of each witness entry in
# build_flow_instance(n).edges order: a change to the phase labels or the
# arc order that moves any flow between arcs shows here, while the sums
# that verify_witness checks would still hold
WITNESS_DIGESTS = {
    2: "6f549977a940b499cbc0724448fd3d95affe6e30f21e74a0f84ada77c650eb45",
    3: "67c3454673b8a40052ecf6cb219e1e083ef35a6c70f8796a80477e21c14bb3eb",
    4: "3c0e08752d581f3eec39aa330bf8b2c684665b8f4aebfb3156d302bbcf1a6e19",
    5: "030a8bfcead713b5f785103527deb373121d66c06cccf4bd326387af6a12c491",
    6: "6b323fcf47f7ea6bc5d08a98a2d99c29b0d82a3f2bdc482e74bf5068887bcba6",
    7: "2625257c5ca412468c9554e850a760acb69260e1fd5127a9e57b86429b29011c",
    8: "9af246338346ed98d7ee22e0db0803b49ad55ed6f9360f9a521c1f13649f8e11",
    9: "5e0774ae9480378121ab8de345bdcb7696ffde79f0f50c0edfce9760e003d517",
    10: "3d58a9a41bd59393751e09e1971f06f6f6433f44139aa060e2793fbb352a51e9",
    11: "733fbc744bd4cbb9fd2512aa7e5171e6b144481b5a8044fe2de5a7d2498b91ba",
    12: "7c575a2621874b42cc62f589d0aa657a8664296b28b1861d5e6f2c30c8ecbadd",
    13: "2f21a016140efef2ee8cbff20a70d71c2026b6516d43b066415a7e71ecf82b43",
    14: "1e2b12e0231c260a9352078f9d3ce6f16ea1a6dbe89249503b68ed8abd4fb8ba",
    15: "e1da8ab398dabd4c98897d9b9c45e467aa8e648d01aabd3becd55b82fe76ddcd",
    16: "b0129d5612a5f330aacdcad680f985288b0b800423a5c7650ef2b7b151b4dd43",
    17: "cf80134da5bf934e51ee0f64d6274758735144851f2643ad550ee00418725c17",
    18: "068cf345c617dbf5df329cd5afb69cb07acf93a4f62eb5da9049d9a7ca9c6072",
    19: "94cc635ad8648c58ec6ddde39ff9925c997b06aaa7462a24ea2dbe37833054d0",
    20: "279af076a58ee3646996ca158d8308fd881ed5fc6e2399240a0fcf0ee6f4e980",
}


def _witness_digest(n):
    witness = polymorphism_feasibility(n)["witness"]
    digest = hashlib.sha256()
    for edge in build_flow_instance(n).edges:
        if edge in witness:
            value = witness[edge]
            digest.update(
                repr((*edge, value.numerator, value.denominator)).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("n", range(2, 21))
def test_witness_bytes_pinned(n):
    assert _witness_digest(n) == WITNESS_DIGESTS[n]


def _random_network(seed):
    """At most 7 nodes, source 0 and sink n-1, arcs with capacities 0..4;
    parallel and antiparallel arcs allowed, no loops."""
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    arcs = [(rng.randrange(n), rng.randrange(n), rng.randint(0, 4))
            for _ in range(rng.randint(0, 3 * n))]
    return n, [(u, v, cap) for u, v, cap in arcs if u != v]


SEED_CHUNKS = [range(k, k + 100) for k in range(0, 500, 100)]


def _chunk_id(seeds):
    return f"{seeds.start}-{seeds.stop - 1}"


def _flat_flow(n, arcs, s, t):
    """The max-flow value of the network on flat arc arrays, and the flow
    on each arc read as the residual of its reverse."""
    net = _Dinic(n)
    ids = [net.add_edge(u, v, cap) for u, v, cap in arcs]
    return net.max_flow(s, t), [net.cap[e ^ 1] for e in ids]


@pytest.mark.parametrize("seeds", SEED_CHUNKS, ids=_chunk_id)
def test_max_flow_equals_brute_force_min_cut(seeds):
    for seed in seeds:
        n, arcs = _random_network(seed)
        s, t = 0, n - 1
        net = _Dinic(n)
        ids = [net.add_edge(u, v, cap) for u, v, cap in arcs]
        value = net.max_flow(s, t)
        assert value == min_cut_oracle(n, arcs, s, t), seed
        # the residual arcs hold a feasible flow of that value ...
        excess = [0] * n
        for (u, v, cap), e in zip(arcs, ids):
            used = net.cap[e ^ 1]
            assert 0 <= used <= cap and net.cap[e] == cap - used, seed
            excess[u] -= used
            excess[v] += used
        assert excess[t] == value == -excess[s], seed
        assert all(excess[v] == 0 for v in range(n) if v not in (s, t)), seed
        # ... and the residual cut certifies it
        side = net.reachable_in_residual(s)
        assert t not in side, seed
        assert sum(cap for u, v, cap in arcs
                   if u in side and v not in side) == value, seed


@pytest.mark.parametrize("seeds", SEED_CHUNKS, ids=_chunk_id)
def test_flow_equals_list_of_lists_oracle_arc_by_arc(seeds):
    for seed in seeds:
        n, arcs = _random_network(seed)
        assert _flat_flow(n, arcs, 0, n - 1) == dinic_oracle(n, arcs, 0, n - 1), seed


def _young_network(n):
    """The transport network of level n-1 -> n with its arcs in the order
    polymorphism_feasibility adds them: source -> gamma, the covering pairs
    in instance order, then mu -> sink."""
    instance = build_flow_instance(n)
    p1, p2 = len(instance.left), len(instance.right)
    sink = 1 + p1 + p2
    left_id = {g: 1 + i for i, g in enumerate(instance.left)}
    right_id = {m: 1 + p1 + j for j, m in enumerate(instance.right)}
    arcs = [(0, left_id[g], p2) for g in instance.left]
    arcs += [(left_id[g], right_id[m], p1 * p2) for g, m in instance.edges]
    arcs += [(right_id[m], sink, p1) for m in instance.right]
    return instance, sink + 1, arcs, 0, sink


@pytest.mark.parametrize("n", range(2, 13))
def test_young_graph_flow_equals_list_of_lists_oracle_arc_by_arc(n):
    instance, nodes, arcs, s, t = _young_network(n)
    value, flows = _flat_flow(nodes, arcs, s, t)
    assert (value, flows) == dinic_oracle(nodes, arcs, s, t)
    # the witness is the flow on the covering-pair arcs over the scale
    scale = len(instance.left) * len(instance.right)
    first = len(instance.left)
    expected = {
        edge: Fraction(used, scale)
        for edge, used in zip(instance.edges, flows[first:]) if used
    }
    assert list(polymorphism_feasibility(n)["witness"].items()) == list(expected.items())
