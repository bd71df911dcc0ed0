"""The sweep table: each sweep's degree range and the failure path of the
checks that reach the form spaces, the deviation systems and the transport.
The counterexamples are made by rebinding the library name a check calls,
which the sweeps look up at call time."""

import json

import pytest

from younglab import characters, linsys, sweeps, tableaux
from younglab.cli import main
from younglab.errors import LimitError, SelfCheckError
from younglab.forms import example4_check
from younglab.partitions import enumerate_partitions, max_n as degree_cap
from younglab.sweeps import SWEEPS, example4_passes, run_sweep

OWN_CAPS = {"statement2": 6, "theorem5": 6, "two-row": 10}


def _not_reached(item):
    raise AssertionError(f"sweep did work on {item!r} before its range check")


def test_own_caps():
    assert {name: s.last for name, s in SWEEPS.items() if s.last is not None} == OWN_CAPS


@pytest.mark.parametrize("name", tuple(SWEEPS))
def test_max_n_above_the_cap_is_rejected_before_any_work(monkeypatch, name):
    cap = min(degree_cap(), OWN_CAPS.get(name, degree_cap()))
    sweep = SWEEPS[name]
    monkeypatch.setitem(
        SWEEPS, name, sweep._replace(items=_not_reached, check=_not_reached)
    )
    with pytest.raises(LimitError):
        run_sweep(name, cap + 1)


@pytest.mark.parametrize("name", [name for name, s in SWEEPS.items() if s.first >= 2])
def test_max_n_below_the_first_degree_is_rejected_before_any_work(monkeypatch, name):
    sweep = SWEEPS[name]
    monkeypatch.setitem(
        SWEEPS, name, sweep._replace(items=_not_reached, check=_not_reached)
    )
    with pytest.raises(LimitError):
        run_sweep(name, sweep.first - 1)


@pytest.mark.parametrize("name", tuple(SWEEPS))
@pytest.mark.parametrize("max_n", [None, 5])
def test_cap_below_the_first_degree_leaves_nothing_to_check(monkeypatch, name, max_n):
    sweep = SWEEPS[name]
    monkeypatch.setenv("YOUNGLAB_MAX_N", str(sweep.first - 1))
    monkeypatch.setitem(
        SWEEPS, name, sweep._replace(items=_not_reached, check=_not_reached)
    )
    with pytest.raises(LimitError, match="leaves no degree to check"):
        run_sweep(name, max_n)


def _fails_on(report, record, checked):
    assert report.status == "fail"
    assert report.counterexamples == [record]
    assert list(report.artifact.values()) == [checked]


@pytest.mark.parametrize("change", [
    {"kernel_dim": 1},
    {"square": False},
    {"unipotent": False},
    {"bar_bijective": False},  # 2 * 3 > 4, so the bijection is forced
])
def test_statement1_counterexample(monkeypatch, change):
    real = sweeps.statement1_check
    monkeypatch.setattr(
        sweeps, "statement1_check",
        lambda lam: real(lam)._replace(**change) if lam == (3, 1) else real(lam),
    )
    _fails_on(run_sweep("statement1", 4), {"lambda": [3, 1]}, 2 + 3 + 5)


def test_statement2_counterexample(monkeypatch):
    monkeypatch.setattr(sweeps, "statement2_check", lambda lam, n: lam != (2, 1))
    _fails_on(run_sweep("statement2", 3), {"lambda": [2, 1]}, 1 + 2 + 3)


@pytest.mark.parametrize("key", ["independent", "kernel_matches", "character_matches"])
def test_theorem5_counterexample(monkeypatch, key):
    real = sweeps.theorem5_check
    monkeypatch.setattr(
        sweeps, "theorem5_check",
        lambda lam, n: {**real(lam, n), key: lam != (2, 1)},
    )
    _fails_on(run_sweep("theorem5", 3), {"lambda": [2, 1]}, 1 + 2 + 3)


@pytest.mark.parametrize("key, broken", [
    ("dims", lambda dims: {**dims, "pair": 1}),
    ("invariant", lambda flags: {**flags, "specht": False}),
    ("characters_match", lambda flags: {**flags, "odd_natural": False}),
    ("direct_sum", lambda flag: False),
    ("even_odd_dims", lambda dims: (7, 5)),
    ("parity_assignments", lambda flag: False),
    ("c_relation", lambda flag: False),
], ids=["dims", "invariant", "characters", "direct-sum", "even-odd", "parity", "c-relation"])
def test_example4_verdict_fails_on_each_condition(key, broken):
    report = example4_check()
    assert example4_passes(report)
    assert not example4_passes({**report, key: broken(report[key])})


@pytest.mark.parametrize("change", [
    {"dims_match": False},
    {"direct_sum": False},
    {"pairwise_zero": False},
    {"characters_match": False},
    {"top_is_shift_invariant": False},
    {"dims": [1, 3, 1]},
])
def test_two_row_counterexample(monkeypatch, change):
    real = sweeps.two_row_decomposition
    monkeypatch.setattr(
        sweeps, "two_row_decomposition",
        lambda n, k: {**real(n, k), **change} if (n, k) == (4, 2) else real(n, k),
    )
    _fails_on(run_sweep("two-row", 4), {"n": 4, "k": 2}, 2 + 2 + 3)


def fault_table(monkeypatch, table, faults):
    """Rebind the degree table ``table`` ("kostka" or "multiplicity") in
    every module that reads it, with entry (mu, lam) moved by
    ``faults[mu, lam]``."""
    def moved(rows, n):
        rows, shapes = dict(rows), enumerate_partitions(n)
        for (mu, lam), step in faults.items():
            if sum(lam) == n:
                row = list(rows[lam])
                row[shapes.index(mu)] += step
                rows[lam] = tuple(row)
        return rows

    if table == "kostka":
        real, name, modules = tableaux._kostka_table, "_kostka_table", (tableaux, sweeps)

        def faulty(n):
            return moved(real(n), n)
    else:
        real, name, modules = (characters._multiplicity_table, "_multiplicity_table",
                               (characters, sweeps))

        def faulty(n):
            return real(n)._replace(rows=moved(real(n).rows, n))
    for module in modules:
        monkeypatch.setattr(module, name, faulty)


@pytest.mark.parametrize("name, table, entry, record", [
    ("youngs-rule", "kostka", ((2, 1), (1, 1, 1)),
     {"mu": [2, 1], "lambda": [1, 1, 1], "multiplicity": 2, "kostka": 3}),
    ("eq1", "multiplicity", ((2, 2), (2, 1, 1)),
     {"lambda": [2, 1, 1], "rho": [2, 1], "left": 5, "right": 4}),
    ("eq2", "kostka", ((2, 2), (2, 1, 1)),
     {"lambda": [2, 1, 1], "rho": [2, 1], "left": 5, "right": 4}),
], ids=["youngs-rule", "eq1", "eq2"])
def test_pair_sweep_counterexample_through_its_table(monkeypatch, capsys, fresh_sides, name,
                                                     table, entry, record):
    # (2, 2) covers only (2, 1) of degree 3, and degree 4 is the last read
    fault_table(monkeypatch, table, {entry: 1})
    assert main(["verify", name, "--max-n", "4"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: FAIL (max_n=4)", f"counterexample: {json.dumps(record)}"]


TABLE_FAULTS = {
    # two entries of one lam, which move three of its pairs in eq1 and eq2
    "one-lambda": {((3, 2), (2, 2, 1)): 1, ((3, 1, 1), (2, 2, 1)): 2},
    # two lam, listed in the other order by youngs-rule (mu first)
    "two-lambdas": {((3, 1, 1), (2, 2, 1)): 1, ((4, 1), (2, 1, 1, 1)): -1},
}

PAIRS_TO_5 = {"eq1": 2 + 6 + 15 + 35, "eq2": 2 + 6 + 15 + 35,
              "youngs-rule": 1 + 4 + 9 + 25 + 49}


@pytest.mark.parametrize("table, faults, name, records", [
    ("kostka", "one-lambda", "eq2", [
        {"lambda": [2, 2, 1], "rho": [3, 1], "left": 8, "right": 5},
        {"lambda": [2, 2, 1], "rho": [2, 2], "left": 4, "right": 3},
        {"lambda": [2, 2, 1], "rho": [2, 1, 1], "left": 4, "right": 2},
    ]),
    ("kostka", "one-lambda", "youngs-rule", [
        {"mu": [3, 2], "lambda": [2, 2, 1], "multiplicity": 2, "kostka": 3},
        {"mu": [3, 1, 1], "lambda": [2, 2, 1], "multiplicity": 1, "kostka": 3},
    ]),
    ("kostka", "two-lambdas", "eq2", [
        {"lambda": [2, 2, 1], "rho": [3, 1], "left": 6, "right": 5},
        {"lambda": [2, 2, 1], "rho": [2, 1, 1], "left": 3, "right": 2},
        {"lambda": [2, 1, 1, 1], "rho": [4], "left": 3, "right": 4},
        {"lambda": [2, 1, 1, 1], "rho": [3, 1], "left": 8, "right": 9},
    ]),
    ("kostka", "two-lambdas", "youngs-rule", [
        {"mu": [4, 1], "lambda": [2, 1, 1, 1], "multiplicity": 3, "kostka": 2},
        {"mu": [3, 1, 1], "lambda": [2, 2, 1], "multiplicity": 1, "kostka": 2},
    ]),
    ("multiplicity", "one-lambda", "eq1", [
        {"lambda": [2, 2, 1], "rho": [3, 1], "left": 8, "right": 5},
        {"lambda": [2, 2, 1], "rho": [2, 2], "left": 4, "right": 3},
        {"lambda": [2, 2, 1], "rho": [2, 1, 1], "left": 4, "right": 2},
    ]),
    ("multiplicity", "one-lambda", "youngs-rule", [
        {"mu": [3, 2], "lambda": [2, 2, 1], "multiplicity": 3, "kostka": 2},
        {"mu": [3, 1, 1], "lambda": [2, 2, 1], "multiplicity": 3, "kostka": 1},
    ]),
    ("multiplicity", "two-lambdas", "eq1", [
        {"lambda": [2, 2, 1], "rho": [3, 1], "left": 6, "right": 5},
        {"lambda": [2, 2, 1], "rho": [2, 1, 1], "left": 3, "right": 2},
        {"lambda": [2, 1, 1, 1], "rho": [4], "left": 3, "right": 4},
        {"lambda": [2, 1, 1, 1], "rho": [3, 1], "left": 8, "right": 9},
    ]),
    ("multiplicity", "two-lambdas", "youngs-rule", [
        {"mu": [4, 1], "lambda": [2, 1, 1, 1], "multiplicity": 2, "kostka": 3},
        {"mu": [3, 1, 1], "lambda": [2, 2, 1], "multiplicity": 2, "kostka": 1},
    ]),
])
def test_table_faults_give_the_pairwise_records_in_pair_order(monkeypatch, capsys, fresh_sides,
                                                              table, faults, name, records):
    # the records of reading each pair of the faulty degree-5 table in turn,
    # in the order of the pairs
    fault_table(monkeypatch, table, TABLE_FAULTS[faults])
    for fmt in ("json", "ascii"):
        assert main(["verify", name, "--max-n", "5", "--format", fmt]) == 1
        out = capsys.readouterr().out
        if fmt == "json":
            payload = json.loads(out)
            assert payload["counterexamples"] == records
            assert payload["artifact"] == {"pairs_checked": PAIRS_TO_5[name]}
        else:
            assert out.splitlines() == [f"{name}: FAIL (max_n=5)"] + [
                f"counterexample: {json.dumps(r)}" for r in records]


@pytest.mark.parametrize("name, module", [("eq1", characters), ("eq2", tableaux)])
def test_pair_sweep_checks_no_pair(monkeypatch, name, module):
    # run_sweep checks the range once; the pairs come from enumerate_partitions
    calls = []
    real = module.check_pair
    monkeypatch.setattr(module, "check_pair", lambda *a: calls.append(a) or real(*a))
    assert run_sweep(name, 8).status == "pass"
    assert calls == []


def test_transport_witness_that_fails_verification(monkeypatch, capsys):
    # the sweep does not re-verify a witness: a failed verification inside
    # polymorphism_feasibility is a bug and stops the sweep
    monkeypatch.setattr(linsys, "_balanced", lambda *args: False)
    with pytest.raises(SelfCheckError):
        run_sweep("transport", 5)
    assert main(["verify", "transport", "--max-n", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = [json.loads(line) for line in err.splitlines()]
    assert [line for line in lines if "error" in line] == [
        {"error": "flow witness for n=2 fails verification", "kind": "internal"}]


def _max_flow_with_a_moved_unit(real):
    """`_Dinic.max_flow` that returns the true value after moving one unit
    from one arc out of the first node behind the source to the next arc
    out of it: that node still sends its supply, while the two nodes at
    the far ends receive one unit too few and one too many."""
    def max_flow(net, s, t):
        value = real(net, s, t)
        u = net.head[net.adj[s][0]]
        out = [e for e in net.adj[u] if e % 2 == 0]  # forward arcs of u
        donor = next(e for e in out if net.cap[e ^ 1])
        taker = next(e for e in out if e != donor)
        for e, delta in ((donor, -1), (taker, 1)):
            net.cap[e ^ 1] += delta
            net.cap[e] -= delta
        return value

    return max_flow


def test_transport_flow_with_a_moved_unit_fails_verification(monkeypatch, capsys):
    monkeypatch.setattr(
        linsys._Dinic, "max_flow", _max_flow_with_a_moved_unit(linsys._Dinic.max_flow))
    with pytest.raises(SelfCheckError, match="^flow witness for n=2 fails verification$"):
        run_sweep("transport", 5)
    assert main(["verify", "transport", "--max-n", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = [json.loads(line) for line in err.splitlines()]
    assert [line for line in lines if "error" in line] == [
        {"error": "flow witness for n=2 fails verification", "kind": "internal"}]


@pytest.mark.parametrize("cut, passes", [
    ({"value": 5, "edges": []}, True),
    ({"value": 6, "edges": []}, False),
    (None, False),
])
def test_transport_infeasible_needs_a_matching_cut(monkeypatch, cut, passes):
    real = sweeps.polymorphism_feasibility
    infeasible = {"feasible": False, "max_flow": 5, "required": 6,
                  "witness": None, "cut": cut}
    monkeypatch.setattr(
        sweeps, "polymorphism_feasibility",
        lambda n: {"n": n, **infeasible} if n == 3 else real(n),
    )
    report = run_sweep("transport", 4)
    if passes:
        assert report.status == "pass"
        assert report.artifact == {"degrees_checked": 3}
    else:
        _fails_on(report, {"n": 3}, 3)
