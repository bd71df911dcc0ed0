"""Verification sweeps over the degree n, defined once.

Each sweep checks one of the paper's statements on every item of every
degree up to ``max_n``: shapes, pairs of shapes, (n, k) pairs, or whole
degrees.  ``SWEEPS`` maps a sweep's name to its first degree, the artifact
key under which it reports how many items it checked, the items of degree
n, a per-item check that returns the item's counterexample records
(JSON-ready dicts, none when it passes), the sweep's own degree cap, if its
constructions have one (``statement2`` 6, ``theorem5`` 6, ``two-row`` 10),
and, for a sweep whose item is a whole degree, the number of objects it
checks there.  ``run_sweep`` holds
the loop over degrees; the CLI's ``verify`` command and the acceptance
suite both call it.  The pass rules of the Example-4, Specht and two-row
reports, ``example4_passes``, ``theorem5_passes`` and ``two_row_passes``,
are also the verdicts of the CLI's ``forms`` command.

The pair sweeps (``youngs-rule``, ``eq1``, ``eq2``) take a degree at a
time and read its tables unchecked: ``youngs-rule`` compares the
multiplicity table with the Kostka table in one comparison, and ``eq1``
and ``eq2`` compare the packed sides of each shape (the bodies behind
``eq1_check`` and ``eq2_check``) in one comparison per shape; only a
mismatch is read pair by pair (``pair``), in the order of the pairs.  ``theorem1``
calls the one body behind ``theorem1_check`` and ``theorem1_components``.
``run_sweep`` refuses a ``max_n`` over the cap before any work, and every
item is built from ``enumerate_partitions``, so a second check per item
would find nothing.  The checks look the library functions
up by their module-global names at call time, so rebinding those names (as
a tracer or a test does) is seen by every sweep.
"""

from __future__ import annotations

from math import comb
from typing import Callable, NamedTuple, Optional, Sequence

from .characters import (
    _eq1_sides,
    _multiplicity_table,
    _theorem1_pairings,
    conjugate_twist_check,
    lemma1_check,
)
from .errors import LimitError
from .forms import (
    STATEMENT2_MAX_N,
    THEOREM5_MAX_N,
    TWO_ROW_MAX_N,
    statement2_check,
    theorem5_check,
    two_row_decomposition,
)
from .linsys import polymorphism_feasibility, statement1_check
from .partitions import enumerate_partitions, max_n as degree_cap, standard_count, successors
from .tableaux import _eq2_sides, _kostka_table

__all__ = ["SWEEPS", "Sweep", "VerificationReport", "example4_passes", "run_sweep",
           "theorem5_passes", "two_row_passes"]


class VerificationReport(NamedTuple):
    """Outcome of one verification sweep; fails iff a counterexample exists."""

    check_name: str
    parameters: dict
    counterexamples: list
    artifact: dict

    @property
    def status(self) -> str:
        return "fail" if self.counterexamples else "pass"

    def payload(self) -> dict:
        return {
            "check": self.check_name,
            "parameters": self.parameters,
            "status": self.status,
            "counterexamples": self.counterexamples,
            "artifact": self.artifact,
        }


class Sweep(NamedTuple):
    """One sweep: ``check(item)`` for every item of ``items(n)``, for n from
    ``first`` to the requested maximum, which may not exceed ``last``; the
    number of items, or ``count(n)`` at each degree if given, is reported
    under ``artifact_key``."""

    first: int
    artifact_key: str
    items: Callable[[int], Sequence]
    check: Callable[[object], list]
    last: Optional[int] = None
    count: Optional[Callable[[int], int]] = None


def _pairs(n: int, m: int) -> int:
    return len(enumerate_partitions(n)) * len(enumerate_partitions(m))


def _theorem1(lam):
    value, common = _theorem1_pairings(lam)
    if value == 1 and common == [(lam, 1, 1)]:
        return []
    return [{
        "lambda": list(lam),
        "pairing": str(value),
        "common": [
            {"mu": list(mu), "in_rows": a, "in_columns": b}
            for mu, a, b in common
        ],
    }]


def _youngs_rule(n):
    table, counts = _multiplicity_table(n), _kostka_table(n)
    if table.rows == counts:
        return []
    shapes = enumerate_partitions(n)
    records = []
    for i, mu in enumerate(shapes):
        for lam in shapes:
            m, k = (row[i] if i < len(row) else 0 for row in (table.rows[lam], counts[lam]))
            if m != k:
                records.append({"mu": list(mu), "lambda": list(lam),
                                "multiplicity": m, "kostka": k})
    return records


def _recurrence(sides, n):
    """The pairs of degree n whose two sides differ, in the order of the
    pairs; the sides of each shape are compared packed, once."""
    records = []
    for lam in enumerate_partitions(n):
        left, right = sides.packed(lam)
        if left == right:
            continue
        for rho in enumerate_partitions(n - 1):
            a, b = sides.pair(lam, rho)
            if a != b:
                records.append({"lambda": list(lam), "rho": list(rho), "left": a, "right": b})
    return records


def _eq1(n):
    return _recurrence(_eq1_sides(n), n)


def _eq2(n):
    return _recurrence(_eq2_sides(n), n)


def _lemma1(lam):
    return [] if lemma1_check(lam) else [{"lambda": list(lam)}]


def _dimension(rho):
    n = sum(rho) + 1
    left = n * standard_count(rho)
    right = sum(standard_count(mu) for mu in successors(rho))
    if left == right:
        return []
    return [{"rho": list(rho), "n": n, "left": left, "right": right}]


def _conjugate_twist(n):
    return [] if conjugate_twist_check(n) else [{"n": n}]


def _statement1(lam):
    rep = statement1_check(lam)
    if rep.bar_bijective:
        ok = rep.square and rep.unipotent and rep.kernel_dim == 0
    else:
        # a first row longer than half the degree forces the bijection
        ok = 2 * lam[0] <= sum(lam)
    return [] if ok else [{"lambda": list(lam)}]


def _statement2(lam):
    return [] if statement2_check(lam, sum(lam)) else [{"lambda": list(lam)}]


def example4_passes(report: dict) -> bool:
    """Verdict on an ``example4_check`` report: the decomposition
    12 = 1 + 2 + 3 + 3 + 3 into invariant pieces with the expected
    characters, and the even/odd split 6 + 6."""
    dims = {"trivial": 1, "pair": 2, "specht": 3, "even_natural": 3, "odd_natural": 3}
    return (report["dims"] == dims
            and all(report["invariant"].values())
            and all(report["characters_match"].values())
            and report["direct_sum"]
            and tuple(report["even_odd_dims"]) == (6, 6)
            and report["parity_assignments"] and report["c_relation"])


def theorem5_passes(report: dict) -> bool:
    """Verdict on a ``theorem5_check`` report."""
    return (report["independent"] and report["kernel_matches"]
            and report["character_matches"])


def _theorem5(lam):
    return [] if theorem5_passes(theorem5_check(lam, sum(lam))) else [{"lambda": list(lam)}]


def two_row_passes(report: dict) -> bool:
    """Verdict on a ``two_row_decomposition`` report."""
    return (report["dims_match"] and report["direct_sum"]
            and report["pairwise_zero"] and report["characters_match"]
            and sum(report["dims"]) == comb(report["n"], report["k"])
            and report["top_is_shift_invariant"] is not False)


def _two_row(pair):
    n, k = pair
    return [] if two_row_passes(two_row_decomposition(n, k)) else [{"n": n, "k": k}]


def _transport(n):
    """A feasible report passes as it stands: ``polymorphism_feasibility``
    has verified its witness (it raises ``SelfCheckError`` otherwise).  An
    infeasible one needs a cut whose value is the max flow."""
    result = polymorphism_feasibility(n)
    cut = result["cut"]
    ok = result["feasible"] or (cut is not None and cut["value"] == result["max_flow"])
    return [] if ok else [{"n": n}]


SWEEPS: dict[str, Sweep] = {
    "theorem1": Sweep(1, "shapes_checked", lambda n: enumerate_partitions(n), _theorem1),
    "youngs-rule": Sweep(1, "pairs_checked", lambda n: (n,), _youngs_rule,
                         count=lambda n: _pairs(n, n)),
    "eq1": Sweep(2, "pairs_checked", lambda n: (n,), _eq1, count=lambda n: _pairs(n, n - 1)),
    "eq2": Sweep(2, "pairs_checked", lambda n: (n,), _eq2, count=lambda n: _pairs(n, n - 1)),
    "lemma1": Sweep(2, "shapes_checked", lambda n: enumerate_partitions(n), _lemma1),
    "dimension": Sweep(2, "shapes_checked", lambda n: enumerate_partitions(n - 1), _dimension),
    "conjugate-twist": Sweep(1, "degrees_checked", lambda n: (n,), _conjugate_twist),
    "statement1": Sweep(2, "shapes_checked", lambda n: enumerate_partitions(n), _statement1),
    "statement2": Sweep(1, "shapes_checked", lambda n: enumerate_partitions(n), _statement2,
                        STATEMENT2_MAX_N),
    "theorem5": Sweep(1, "shapes_checked", lambda n: enumerate_partitions(n), _theorem5,
                      THEOREM5_MAX_N),
    "two-row": Sweep(2, "spaces_checked", lambda n: [(n, k) for k in range(n // 2 + 1)],
                     _two_row, TWO_ROW_MAX_N),
    "transport": Sweep(2, "degrees_checked", lambda n: (n,), _transport),
}


def run_sweep(name: str, max_n: Optional[int] = None) -> VerificationReport:
    """Run sweep ``name`` over the degrees up to ``max_n``, by default the
    smaller of 8 and the cap below.

    Raises LimitError before any work unless max_n lies between the
    sweep's first degree and min(YOUNGLAB_MAX_N, the sweep's own cap), so
    that no sweep passes over an empty range; when that cap is itself below
    the first degree, the error says so whatever max_n is.
    """
    sweep = SWEEPS[name]
    cap = degree_cap() if sweep.last is None else min(degree_cap(), sweep.last)
    if cap < sweep.first:
        raise LimitError(f"the degree cap {cap} leaves no degree to check: "
                         f"{name} starts at n={sweep.first}")
    max_n = min(8, cap) if max_n is None else max_n
    if not sweep.first <= max_n <= cap:
        raise LimitError(f"max_n={max_n} must lie in {sweep.first}..{cap}")
    counterexamples = []
    checked = 0
    for n in range(sweep.first, max_n + 1):
        items = sweep.items(n)
        for item in items:
            counterexamples += sweep.check(item)
        checked += len(items) if sweep.count is None else sweep.count(n)
    return VerificationReport(name, {"max_n": max_n}, counterexamples,
                              {sweep.artifact_key: checked})
