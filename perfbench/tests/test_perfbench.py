"""Self-tests of the benchmark: the tracer, the cold-start guard, the
scaling to the reference speed and a tiny-size run of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tracer
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    assert tracer.self_times(starts, ends, parents) == [6.0, 2.0, 1.0, 1.0]


class _Ticks:
    """A clock that advances by one on every reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_self_time_through_wrappers(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    partitions = types.ModuleType("fakepkg.partitions")
    exactla = types.ModuleType("fakepkg.exactla")

    def leaf():
        return 1

    def outer():
        return exactla.leaf() + exactla.leaf()

    leaf.__module__ = "fakepkg.exactla"
    outer.__module__ = "fakepkg.partitions"
    exactla.leaf = leaf
    partitions.outer = outer
    for name, module in [("fakepkg", pkg), ("fakepkg.partitions", partitions),
                         ("fakepkg.exactla", exactla)]:
        monkeypatch.setitem(sys.modules, name, module)

    tr = tracer.Tracer(clock=_Ticks())
    tr.install("fakepkg")
    try:
        assert partitions.outer() == 2
    finally:
        tr.uninstall()
    assert partitions.outer is outer and exactla.leaf is leaf
    # outer reads the clock at 1 and 6; each leaf spans one tick
    assert tr.starts == [1.0, 2.0, 4.0] and tr.ends == [6.0, 3.0, 5.0]
    m = tr.metrics()
    assert m["partitions.self_s"] == (3.0, "s")
    assert m["exactla.self_s"] == (2.0, "s")
    assert m["partitions.calls"] == (1, "count")


def test_tracer_catches_calls_through_importing_modules():
    import younglab.forms
    import younglab.linsys
    from younglab.exactla import RationalMatrix, Subspace

    tr = tracer.Tracer()
    tr.install()
    try:
        assert hasattr(younglab.forms.restricted_trace, "__wrapped__")
        assert hasattr(younglab.linsys.kernel, "__wrapped__")
        trace = younglab.forms.restricted_trace(
            RationalMatrix.identity(2), Subspace(2, [[1, 0]]))
        null = younglab.linsys.kernel(RationalMatrix([[1, 1]]))
    finally:
        tr.uninstall()
    assert trace == 1 and null.dim == 1
    m = tr.metrics()
    assert m["exactla.kernel_calls"] == (1, "count")
    assert m["exactla.restricted_trace_s"][0] > 0
    assert m["exactla.rref_calls"][0] >= 2  # Subspace() and kernel() both reduce
    assert younglab.forms.restricted_trace is younglab.exactla.restricted_trace
    assert not hasattr(younglab.linsys.kernel, "__wrapped__")


def test_cold_start_guard_sees_a_warm_table():
    import child
    import younglab

    younglab.partitions.enumerate_partitions(3)
    assert "partitions.enumerate_partitions" in child.warm_tables()


def test_golden_covers_every_item():
    golden = workloads.load_golden()
    for size in workloads.SIZES:
        for name in workloads.WORKLOADS:
            for part in workloads.build(name, size, seed=0):
                recorded = golden[size][name][part.name]
                assert len(recorded) in (1, part.items), (size, name, part.name)


def test_timings_are_scaled_to_the_reference_speed():
    import reference
    import run

    wall, cpu = reference.reference()  # raises if the computation is wrong
    assert wall > 0 and cpu > 0
    # a process that ran the reference at half the nominal speed
    rep = {"wall_s": 4.0, "cpu_s": 5.0, "setup_s": 0.3, "items": 8, "peak_rss_mib": 20.0,
           "ref_s": 2 * reference.REFERENCE_S}
    rep["scale"] = reference.REFERENCE_S / rep["ref_s"]
    m = run.end_to_end({"plain": [rep], "setups": [rep]})
    assert m["wall_s"][0] == pytest.approx(2.0)
    assert m["cpu_s"][0] == pytest.approx(2.5)
    assert m["setup_s"][0] == pytest.approx(0.15)
    assert m["items_per_s"][0] == pytest.approx(4.0)
    assert m["peak_rss_mib"][0] == 20.0


def _run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
         *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_of_every_workload(workload):
    plain = _run(workload, 0)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = _run(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_refuses_optimized_interpreter():
    proc = subprocess.run(
        [sys.executable, "-O", str(BENCH / "run.py"), "--workload", "linsys-sweep",
         "--seed", "1", "--seconds", "1", "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout.strip()
