"""The sweep table: each sweep's degree range and the failure path of the
checks that reach the form spaces, the deviation systems and the transport.
The counterexamples are made by rebinding the library name a check calls,
which the sweeps look up at call time."""

import json

import pytest

from younglab import linsys, sweeps
from younglab.cli import main
from younglab.errors import LimitError, SelfCheckError
from younglab.partitions import max_n as degree_cap
from younglab.sweeps import SWEEPS, run_sweep

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


def test_transport_witness_that_fails_verification(monkeypatch, capsys):
    # the sweep does not re-verify a witness: a failed verification inside
    # polymorphism_feasibility is a bug and stops the sweep
    monkeypatch.setattr(linsys, "verify_witness", lambda instance, witness: False)
    with pytest.raises(SelfCheckError):
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
