"""Benchmark workloads: the inputs each one feeds to younglab, how many
items it covers, and the check applied to every output.

A workload is a list of parts.  A part's ``run`` is the timed work: it
yields ``(weight, record)`` pairs, one per item for library parts and one
per CLI invocation (weighted by the items that invocation covers).  The
checks run afterwards, untimed: ``ok(record)`` tests the part's own
invariants and ``value(record)`` must equal the entry recorded under
``key(record)`` in ``golden.json``.

The sweeps are exhaustive.  The seed only permutes the order in which the
benchmark visits the items of one degree, where the benchmark drives the
loop itself; CLI parts ignore it.  Partitions are enumerated here, without
younglab, so the program only receives the generated inputs.

This module imports no younglab code at import time: the parent process
uses it for item counts without loading the library.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable, Iterator

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Input sizes.  "full" is what the benchmark measures; "tiny" keeps the
# same code paths for the self-tests and finishes in well under a second.
SIZES = {
    "full": {
        "theorem1_max_n": 10,
        "eq2_max_n": 10,
        "cert_n": 8,
        "two_row": (7, 3),
        "statement1_n": 11,
        "flow_max_n": 20,
    },
    "tiny": {
        "theorem1_max_n": 5,
        "eq2_max_n": 5,
        "cert_n": 5,
        "two_row": (4, 2),
        "statement1_n": 6,
        "flow_max_n": 6,
    },
}

# Degree cap handed to the child through YOUNGLAB_MAX_N; linsys-sweep
# reaches n = 20 in the transport part.
MAX_N = 20


def partitions(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n, largest part first."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def partition_count(n: int) -> int:
    return sum(1 for _ in partitions(n))


def fmt(p: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in p)


@dataclass(frozen=True)
class Part:
    name: str
    items: int
    run: Callable[[], Iterator[tuple[int, object]]]
    key: Callable[[object], str]
    value: Callable[[object], object]
    ok: Callable[[object], bool]
    stdout_bytes: Callable[[object], int] = lambda record: 0


def _cli_part(name: str, argv: list[str], items: int,
              expect: Callable[[dict], bool]) -> Part:
    """One ``younglab.cli.main(argv)`` call covering ``items`` items.  The
    record is the exit code and the captured stdout; the golden value is
    the stdout digest, since stdout must stay byte-identical."""

    def run():
        from younglab import cli

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        yield items, (code, buf.getvalue())

    def ok(record) -> bool:
        code, text = record
        if code != 0:
            return False
        try:
            return bool(expect(json.loads(text)))
        except ValueError:
            return False

    return Part(
        name, items, run,
        key=lambda record: "stdout_sha256",
        value=lambda record: hashlib.sha256(record[1].encode()).hexdigest(),
        ok=ok,
        stdout_bytes=lambda record: len(record[1].encode()),
    )


def _verify_part(check: str, max_n: int, items: int, artifact_key: str) -> Part:
    def expect(payload: dict) -> bool:
        return (
            payload["status"] == "pass"
            and payload["counterexamples"] == []
            and payload["artifact"] == {artifact_key: items}
        )

    argv = ["verify", check, "--max-n", str(max_n), "--format", "json"]
    return _cli_part(check, argv, items, expect)


def characters_sweep(size: dict, seed: int) -> list[Part]:
    max_n = size["theorem1_max_n"]
    shapes = sum(partition_count(n) for n in range(1, max_n + 1))
    return [_verify_part("theorem1", max_n, shapes, "shapes_checked")]


def tableaux_sweep(size: dict, seed: int) -> list[Part]:
    max_n = size["eq2_max_n"]
    pairs = sum(partition_count(n) * partition_count(n - 1)
                for n in range(2, max_n + 1))
    n = size["cert_n"]
    cert_inputs = [(lam, rho) for lam in partitions(n) for rho in partitions(n - 1)]
    random.Random(seed).shuffle(cert_inputs)

    def run_certs():
        from younglab import tableaux

        for lam, rho in cert_inputs:
            cert = tableaux.theorem4_bijection(lam, rho)
            yield 1, (lam, rho, len(cert.pairs), cert.check())

    certs = Part(
        "theorem4", len(cert_inputs), run_certs,
        key=lambda r: f"{fmt(r[0])}|{fmt(r[1])}",
        value=lambda r: r[2],
        ok=lambda r: r[3] is True,
    )
    return [_verify_part("eq2", max_n, pairs, "pairs_checked"), certs]


def forms_two_row(size: dict, seed: int) -> list[Part]:
    n, k = size["two_row"]
    # dim of the l-component is f^(n-l, l) = C(n, l) - C(n, l-1)
    dims = [comb(n, l) - (comb(n, l - 1) if l else 0) for l in range(k + 1)]
    flags = ("dims_match", "direct_sum", "pairwise_zero", "characters_match")

    def expect(payload: dict) -> bool:
        return (
            payload["status"] == "pass"
            and payload["dims"] == dims
            and all(payload[f] is True for f in flags)
            and payload["top_is_shift_invariant"] is not False
        )

    argv = ["forms", "--check", "two-row", "--n", str(n), "--k", str(k),
            "--format", "json"]
    return [_cli_part("two-row", argv, k + 1, expect)]


def linsys_sweep(size: dict, seed: int) -> list[Part]:
    shapes = list(partitions(size["statement1_n"]))
    random.Random(seed).shuffle(shapes)

    def run_statement1():
        from younglab import linsys

        for lam in shapes:
            r = linsys.statement1_check(lam)
            yield 1, (lam, [r.bar_bijective, r.square, r.kernel_dim, r.unipotent])

    def statement1_ok(record) -> bool:
        bijective, square, kernel_dim, unipotent = record[1]
        # the paper's contract: a bijective bar map forces the other three
        return not bijective or (square and kernel_dim == 0 and unipotent)

    degrees = list(range(2, size["flow_max_n"] + 1))

    def run_flow():
        from younglab import linsys

        for n in degrees:
            r = linsys.polymorphism_feasibility(n)
            yield 1, (n, r["feasible"], r["max_flow"], r["required"],
                      r["witness"] is not None)

    return [
        Part("statement1", len(shapes), run_statement1,
             key=lambda r: fmt(r[0]), value=lambda r: r[1], ok=statement1_ok),
        Part("transport", len(degrees), run_flow,
             key=lambda r: str(r[0]), value=lambda r: [r[2], r[3]],
             ok=lambda r: r[1] is True and r[2] == r[3] and r[4]),
    ]


WORKLOADS: dict[str, Callable[[dict, int], list[Part]]] = {
    "characters-sweep": characters_sweep,
    "tableaux-sweep": tableaux_sweep,
    "forms-two-row": forms_two_row,
    "linsys-sweep": linsys_sweep,
}


def build(workload: str, size: str, seed: int) -> list[Part]:
    return WORKLOADS[workload](SIZES[size], seed)


def item_count(workload: str, size: str) -> int:
    return sum(part.items for part in build(workload, size, 0))


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)
