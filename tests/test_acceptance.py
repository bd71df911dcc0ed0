"""Acceptance suite: the exit criteria of the build, one test per
criterion, every check exact.  Each test prints a single pass/fail line so
the sweep is readable both under pytest -v and in captured logs.
"""

import time
from math import factorial

from oracles import ind_sgn_coset_oracle, perm_character_tabloid_oracle
from younglab.characters import (
    ind_sgn_character,
    inner,
    multiplicity_table,
    perm_character,
)
from younglab.forms import (
    example4_check,
    monomial_action_character,
    span_of_forms,
    x_monomials,
    Form,
)
from younglab.partitions import (
    enumerate_partitions,
    partition_count,
    standard_count,
)
from younglab.sweeps import example4_passes, run_sweep
from younglab.tableaux import (
    enumerate_standard,
    eq2_check,
    format_tableau,
    theorem4_bijection,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed"


def _sweep_passes(name: str, max_n: int, expected_items: int) -> bool:
    """The shared sweep finds no counterexample and checked exactly the
    expected number of items, so that skipped items cannot pass vacuously."""
    report = run_sweep(name, max_n)
    return (report.status == "pass"
            and list(report.artifact.values()) == [expected_items])


def test_criterion_01_common_irreducible_pairing():
    started = time.monotonic()
    ok = _sweep_passes("theorem1", 8, sum(partition_count(n) for n in range(1, 9)))
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0

    # independent re-verification at small degrees from raw group data
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            psi = perm_character_tabloid_oracle(lam)
            phi = ind_sgn_coset_oracle(lam)
            if inner(psi, phi) != 1:
                ok = False
            if psi != perm_character(lam) or phi != ind_sgn_character(lam):
                ok = False
    _report(1, "unique common irreducible, multiplicity one (n <= 8)", ok,
            f"class-function sweep {elapsed:.1f}s; oracles to n=5")


def test_criterion_02_youngs_rule():
    ok = _sweep_passes(
        "youngs-rule", 8, sum(partition_count(n) ** 2 for n in range(1, 9))
    )
    table4 = multiplicity_table(4)
    row = [table4(mu, (2, 1, 1)) for mu in ((4,), (2, 2), (2, 1, 1), (3, 1))]
    ok = ok and row == [1, 1, 1, 2]
    _report(2, "multiplicities equal Kostka numbers (n <= 8)", ok)


GOLDEN_PAIRS = {
    ((3, 2, 1), (4, 1)): [
        ("1,1,1,2,2/3", 1, "1,1,2,2/3"),
        ("1,1,1,2,3/2", 1, "1,1,2,3/2"),
        ("1,1,1,2/2,3", 2, "1,1,1,2/3"),
        ("1,1,1,3/2,2", 2, "1,1,1,3/2"),
        ("1,1,1,2/2/3", 3, "1,1,1,2/2"),
    ],
    ((2, 2, 1), (3, 1)): [
        ("1,1,2,2/3", 1, "1,2,2/3"),
        ("1,1,2,3/2", 1, "1,2,3/2"),
        ("1,1,2/2,3", 2, "1,1,2/3"),
        ("1,1,3/2,2", 2, "1,1,3/2"),
        ("1,1,2/2/3", 3, "1,1,2/2"),
    ],
}


def test_criterion_03_recurrences_and_worked_examples():
    pairs = sum(partition_count(n) * partition_count(n - 1) for n in range(2, 9))
    ok = _sweep_passes("eq1", 8, pairs) and _sweep_passes("eq2", 8, pairs)
    for (lam, rho), golden in GOLDEN_PAIRS.items():
        if eq2_check(lam, rho) != (5, 5):
            ok = False
        cert = theorem4_bijection(lam, rho)
        got = [
            (format_tableau(p.mu_tableau), p.removed_symbol,
             format_tableau(p.rho_tableau))
            for p in cert.pairs
        ]
        if got != golden or not cert.canonical or not cert.check():
            ok = False

    total = canonical = 0
    for n in range(2, 8):
        for lam in enumerate_partitions(n):
            for rho in enumerate_partitions(n - 1):
                cert = theorem4_bijection(lam, rho)
                if not cert.check():
                    ok = False
                total += len(cert.pairs)
                canonical += cert.canonical_count
    _report(3, "both recurrences exact (n <= 8), worked pairings reproduced", ok,
            f"canonical rule covered {canonical}/{total} items in the n <= 7 sweep, "
            "the rest paired in listing order")


def test_criterion_04_restriction_rule():
    ok = _sweep_passes("lemma1", 8, sum(partition_count(n) for n in range(2, 9)))
    _report(4, "restriction decomposes with removal multiplicities (n <= 8)", ok)


def test_criterion_05_dimension_recurrence():
    ok = _sweep_passes(
        "dimension", 12, sum(partition_count(n - 1) for n in range(2, 13))
    )
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            if len(enumerate_standard(lam)) != standard_count(lam):
                ok = False
    _report(5, "branching dimension recurrence (n <= 12), direct counts (n <= 8)", ok)


def test_criterion_06_multiplicity_system():
    ok = _sweep_passes(
        "statement1", 10, sum(partition_count(n) for n in range(2, 11))
    )
    _report(6, "bar-bijective shapes give square unipotent systems (n <= 10)", ok)


def test_criterion_07_form_spaces_realize_induced_modules():
    ok = _sweep_passes(
        "statement2", 6, sum(partition_count(n) for n in range(1, 7))
    )
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            monos = x_monomials(lam, n)
            expected = factorial(n)
            for part in lam:
                expected //= factorial(part)
            if len(set(monos)) != expected:
                ok = False
            if len(monos) <= 360:
                # actual rank of the span, not just distinctness
                space = span_of_forms(
                    [Form.monomial(n, m) for m in monos], monos
                )
                if space.dim != expected:
                    ok = False
    # single row: one-dimensional trivial module
    ok = ok and len(x_monomials((4,), 4)) == 1
    # column at n=4: the regular character
    regular = monomial_action_character(x_monomials((1, 1, 1, 1), 4), 4)
    ok = ok and regular.degree == 24
    ok = ok and all(
        v == (24 if rho == (1, 1, 1, 1) else 0)
        for rho, v in zip(enumerate_partitions(4), regular.values)
    )
    _report(7, "monomial spans have induced dimensions and characters (n <= 6)", ok)


def test_criterion_08_specht_modules():
    ok = _sweep_passes("theorem5", 5, sum(partition_count(n) for n in range(1, 6)))
    _report(8, "standard Specht polynomials span the shift-invariant part (n <= 5)", ok)


def test_criterion_09_twelve_dimensional_example():
    ok = example4_passes(example4_check())
    _report(9, "12 = 1+2+3+3+3 decomposition with even/odd split", ok)


def test_criterion_10_two_row_decomposition():
    ok = _sweep_passes("two-row", 8, sum(n // 2 + 1 for n in range(2, 9)))
    _report(10, "squarefree spaces split multiplicity-free (n <= 8)", ok)


def test_criterion_11_uniform_transport():
    ok = _sweep_passes("transport", 20, len(range(2, 21)))
    _report(11, "uniform transport verified exactly (n <= 20)", ok)
