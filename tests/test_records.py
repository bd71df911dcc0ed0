"""The library's records: their fields in order, immutability and repr.
The plain records are named tuples (use ``._replace`` and ``._fields``);
``ClassFunction`` is an immutable value with slots, not a sequence.
Importing the library and its CLI loads neither ``dataclasses`` nor the
modules it pulls in."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from younglab.characters import ClassFunction, multiplicity_table
from younglab.errors import DegreeMismatchError
from younglab.forms import Form, span_of_forms
from younglab.linsys import build_flow_instance, build_system3, statement1_check
from younglab.sweeps import run_sweep
from younglab.tableaux import theorem4_bijection

PAIR_REPR = ("BijectionPair(mu_tableau=((1, 1),), removed_symbol=1, rho_tableau=((1,),), "
             "gamma_weight=(1,), canonical=True)")

# builder, field names in order, repr
RECORDS = {
    "BijectionPair": (
        lambda: theorem4_bijection((2,), (1,)).pairs[0],
        ("mu_tableau", "removed_symbol", "rho_tableau", "gamma_weight", "canonical"),
        PAIR_REPR),
    "BijectionCertificate": (
        lambda: theorem4_bijection((2,), (1,)),
        ("lam", "rho", "pairs"),
        f"BijectionCertificate(lam=(2,), rho=(1,), pairs=({PAIR_REPR},))"),
    "Statement1Report": (
        lambda: statement1_check((2,)),
        ("lam", "bar_bijective", "square", "kernel_dim", "unipotent"),
        "Statement1Report(lam=(2,), bar_bijective=True, square=True, kernel_dim=0, "
        "unipotent=True)"),
    "System3": (
        lambda: build_system3((2,)),
        ("lam", "row_index", "col_index", "matrix"),
        "System3(lam=(2,), row_index=((1,),), col_index=((2,),), "
        "matrix=RationalMatrix(1x1: 1))"),
    "FlowInstance": (
        lambda: build_flow_instance(2),
        ("n", "left", "right", "edges", "supply", "demand"),
        "FlowInstance(n=2, left=((1,),), right=((2,), (1, 1)), "
        "edges=(((1,), (2,)), ((1,), (1, 1))), supply=Fraction(1, 1), "
        "demand=Fraction(1, 2))"),
    "FormSpace": (
        lambda: span_of_forms([Form(2, {(1, 0): 1, (0, 1): 1})], [(1, 0), (0, 1)]),
        ("ambient", "subspace"),
        "FormSpace(ambient=((1, 0), (0, 1)), subspace=Subspace(dim 1 of Q^2))"),
    "MultiplicityTable": (
        lambda: multiplicity_table(2),
        ("n", "rows", "characters"),
        "MultiplicityTable(n=2, rows={(2,): (1,), (1, 1): (1, 1)}, "
        "characters={(2,): ClassFunction(n=2, values=(1, 1)), "
        "(1, 1): ClassFunction(n=2, values=(-1, 1))})"),
    "VerificationReport": (
        lambda: run_sweep("theorem1", 2),
        ("check_name", "parameters", "counterexamples", "artifact"),
        "VerificationReport(check_name='theorem1', parameters={'max_n': 2}, "
        "counterexamples=[], artifact={'shapes_checked': 3})"),
    "ClassFunction": (
        lambda: ClassFunction(2, (1, -1)),
        ("n", "values"),
        "ClassFunction(n=2, values=(1, -1))"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_fields_immutability_and_repr(name):
    build, fields, text = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    names = record._fields if isinstance(record, tuple) else type(record).__slots__
    assert names == fields
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        assert getattr(record, field) is value
    assert repr(record) == text


class TestClassFunction:
    def test_wrong_length_raises(self):
        with pytest.raises(DegreeMismatchError):
            ClassFunction(2, (1,))

    def test_values_are_stored_as_a_tuple(self):
        f, g = ClassFunction(2, [1, 1]), ClassFunction(2, (1, 1))
        assert f.values == (1, 1) and type(f.values) is tuple
        assert f == g and hash(f) == hash(g)
        assert f != ClassFunction(2, (1, -1)) and f != (2, (1, 1))

    def test_is_not_a_sequence(self):
        f = ClassFunction(2, (1, 1))
        with pytest.raises(TypeError):
            len(f)
        with pytest.raises(TypeError):
            f * 2

    def test_deleting_a_field_raises(self):
        f = ClassFunction(2, (1, 1))
        with pytest.raises(AttributeError):
            del f.values


def test_import_loads_no_dataclasses():
    # -S: no site .pth file preloads any of these before younglab does
    root = Path(__file__).resolve().parent.parent
    code = ("import sys, younglab, younglab.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}"
            " & set(sys.modules)))")
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
