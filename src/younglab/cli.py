"""Batch driver: enumeration commands, verification sweeps, and exact
certificates with deterministic output.

Exit status: 0 on success, 1 when a verification sweep finds a
counterexample, 2 on usage errors (``"kind": "usage"``, including a
``verify --max-n`` outside the sweep's first degree up to
min(YOUNGLAB_MAX_N, the sweep's cap)), on input/output errors such as an
unwritable ``--out`` path (``"kind": "io"``) and when a result fails the
library's own re-check, a bug rather than bad input (``SelfCheckError``,
``NotInvariantError``, ``OrthogonalizationError``, ``"kind": "internal"``).
Errors go to stderr as a single JSON object; timing also goes to stderr so
that stdout stays byte-identical across runs.  Rationals serialize as
"p/q" strings ("p" for integers).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .characters import class_size, class_types, irreducible_characters
from .errors import NotInvariantError, OrthogonalizationError, SelfCheckError, YounglabError
from .forms import (
    example4_check,
    format_form,
    specht_poly,
    statement2_check,
    theorem5_check,
    two_row_decomposition,
)
from .linsys import polymorphism_feasibility, statement1_check
from .partitions import enumerate_partitions, format_partition, parse_partition
from .sweeps import SWEEPS, example4_passes, run_sweep, theorem5_passes, two_row_passes
from .tableaux import (
    enumerate_ssyt,
    enumerate_standard,
    format_tableau,
    kostka,
    theorem4_bijection,
)


def frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _tableau_ascii(t) -> str:
    return " / ".join(" ".join(str(x) for x in row) for row in t)


def _emit(args, payload: dict, ascii_lines: list[str], tsv_lines: list[str]) -> None:
    fmt = getattr(args, "format", "ascii")
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "tsv":
        text = "".join(line + "\n" for line in tsv_lines)
    else:
        text = "".join(line + "\n" for line in ascii_lines)
    _write(args, text)


def _write(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_partitions(args) -> int:
    parts = enumerate_partitions(args.n)
    payload = {"n": args.n, "count": len(parts), "partitions": [list(p) for p in parts]}
    lines = [format_partition(p) for p in parts]
    _emit(args, payload, lines, lines)
    return 0


def _cmd_kostka(args) -> int:
    mu = parse_partition(args.mu)
    lam = parse_partition(getattr(args, "lambda"))
    value = kostka(mu, lam)
    payload = {"mu": list(mu), "lambda": list(lam), "kostka": value}
    _emit(args, payload, [str(value)], [str(value)])
    return 0


def _cmd_ssyt(args) -> int:
    shape = parse_partition(args.shape)
    try:
        weight = tuple(int(s) for s in args.weight.split(",")) if args.weight else ()
    except ValueError as exc:
        raise ValueError(f"invalid weight {args.weight!r}: {exc}") from None
    tabs = enumerate_ssyt(shape, weight)
    payload = {
        "shape": list(shape),
        "weight": list(weight),
        "count": len(tabs),
        "tableaux": [[list(row) for row in t] for t in tabs],
    }
    lines = [_tableau_ascii(t) for t in tabs]
    tsv = [format_tableau(t) for t in tabs]
    _emit(args, payload, lines, tsv)
    return 0


def _cmd_bijection(args) -> int:
    lam = parse_partition(getattr(args, "lambda"))
    rho = parse_partition(args.rho)
    cert = theorem4_bijection(lam, rho)
    if not cert.check():
        raise SelfCheckError("bijection certificate failed verification")
    payload = {
        "lambda": list(lam),
        "rho": list(rho),
        "canonical": cert.canonical,
        "pairs": [
            {
                "mu_tableau": [list(r) for r in p.mu_tableau],
                "removed_symbol": p.removed_symbol,
                "rho_tableau": [list(r) for r in p.rho_tableau],
                "gamma_weight": list(p.gamma_weight),
                "canonical": p.canonical,
            }
            for p in cert.pairs
        ],
    }
    lines = [
        f"{_tableau_ascii(p.mu_tableau)}  -({p.removed_symbol})->  "
        f"{_tableau_ascii(p.rho_tableau)}  [weight {format_partition(p.gamma_weight)}]"
        for p in cert.pairs
    ]
    lines.append(f"pairs: {len(cert.pairs)}  canonical: {cert.canonical}")
    tsv = [
        "\t".join([
            format_tableau(p.mu_tableau), str(p.removed_symbol),
            format_tableau(p.rho_tableau), format_partition(p.gamma_weight),
        ])
        for p in cert.pairs
    ]
    _emit(args, payload, lines, tsv)
    return 0


def _cmd_character_table(args) -> int:
    n = args.n
    chis = irreducible_characters(n)  # keyed in the frozen order, like the classes
    types = class_types(n)
    names = [format_partition(p) for p in types]
    sizes = [class_size(rho) for rho in types]
    # per class, the value string of each character, read in class order
    values = list(zip(*([str(v) for v in chi.values] for chi in chis.values())))
    # only the asked format is built: p(n)^2 cells make each one costly
    if args.format == "json":
        payload = {
            "n": n,
            "partitions": names,
            "classes": [
                {"cycle_type": name, "class_size": size, "values": dict(zip(names, row))}
                for name, size, row in zip(names, sizes, values)
            ],
        }
        _write(args, json.dumps(payload, indent=2) + "\n")
        return 0
    header = ["cycle_type", "class_size", *names]
    rows = [[name, str(size), *row] for name, size, row in zip(names, sizes, values)]
    if args.format == "tsv":
        lines = ["\t".join(header)] + ["\t".join(row) for row in rows]
    else:
        widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
        lines = [
            "  ".join(h.rjust(w) for h, w in zip(header, widths)),
        ] + ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in rows]
    _write(args, "".join(line + "\n" for line in lines))
    return 0


def _cmd_verify(args) -> int:
    report = run_sweep(args.check, args.max_n)
    payload = report.payload()
    max_n = report.parameters["max_n"]
    lines = [f"{report.check_name}: {report.status.upper()} (max_n={max_n})"]
    for ce in report.counterexamples:
        lines.append(f"counterexample: {json.dumps(ce)}")
    tsv = [f"{report.check_name}\t{report.status}\t{max_n}"]
    _emit(args, payload, lines, tsv)
    return 0 if report.status == "pass" else 1


def _cmd_linsys(args) -> int:
    lam = parse_partition(getattr(args, "lambda"))
    report = statement1_check(lam)
    matrix = [[row.get(j, 0) for j in range(len(report.col_index))] for row in report.matrix]
    payload = {
        "lambda": list(lam),
        "rows": [list(r) for r in report.row_index],
        "columns": [list(c) for c in report.col_index],
        "matrix": matrix,
        "bar_bijective": report.bar_bijective,
        "square": report.square,
        "kernel_dim": report.kernel_dim,
        "unipotent": report.unipotent,
    }
    lines = [
        f"lambda: {format_partition(lam)}",
        "rows: " + "  ".join(format_partition(r) for r in report.row_index),
        "columns: " + "  ".join(format_partition(c) for c in report.col_index),
    ]
    lines += [" ".join(map(str, row)) for row in matrix]
    lines.append(
        f"bar_bijective: {report.bar_bijective}  square: {report.square}  "
        f"kernel_dim: {report.kernel_dim}  unipotent: {report.unipotent}"
    )
    tsv = ["\t".join(map(str, row)) for row in matrix]
    _emit(args, payload, lines, tsv)
    return 0


def _cmd_polymorphism(args) -> int:
    result = polymorphism_feasibility(args.n)
    # the witness is keyed in instance.edges order
    witness_rows = [
        {"from": format_partition(g), "to": format_partition(m),
         "value": frac_str(value)}
        for (g, m), value in (result["witness"] or {}).items()
    ]
    payload = {
        "n": args.n,
        "feasible": result["feasible"],
        "max_flow": result["max_flow"],
        "required": result["required"],
        "witness": witness_rows if result["witness"] is not None else None,
    }
    lines = [f"n: {args.n}  feasible: {result['feasible']}"]
    lines += [f"{r['from']} -> {r['to']}: {r['value']}" for r in witness_rows]
    tsv = [f"{r['from']}\t{r['to']}\t{r['value']}" for r in witness_rows]
    _emit(args, payload, lines, tsv)
    return 0


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _cmd_forms(args) -> int:
    check = args.check
    if check == "example4":
        report = example4_check()
        ok = example4_passes(report)
    elif check == "statement2":
        if getattr(args, "lambda") is None:
            raise _UsageError("statement2 requires --lambda")
        lam = parse_partition(getattr(args, "lambda"))
        ok = statement2_check(lam, sum(lam))
        report = {"lambda": list(lam), "matches_permutation_character": ok}
    elif check == "specht":
        if getattr(args, "lambda") is None:
            raise _UsageError("specht requires --lambda")
        lam = parse_partition(getattr(args, "lambda"))
        report = theorem5_check(lam, sum(lam))
        report["basis"] = [
            format_form(specht_poly(t, sum(lam))) for t in enumerate_standard(lam)
        ]
        ok = theorem5_passes(report)
    elif check == "two-row":
        if args.k is None or args.n is None:
            raise _UsageError("two-row requires --n and --k")
        report = two_row_decomposition(args.n, args.k)
        ok = two_row_passes(report)
    else:  # pragma: no cover - argparse restricts choices
        raise _UsageError(f"unknown check {check}")
    payload = {"check": check, "status": "pass" if ok else "fail"}
    payload.update(_jsonable(report))
    lines = [f"{check}: {'PASS' if ok else 'FAIL'}"]
    lines += [f"{key}: {value}" for key, value in _jsonable(report).items()]
    tsv = [f"{check}\t{'pass' if ok else 'fail'}"]
    _emit(args, payload, lines, tsv)
    return 0 if ok else 1


def _describe(exc: Exception) -> str:
    """Type, message and innermost frame of an unexpected exception."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    where = f"{Path(tb.tb_frame.f_code.co_filename).name}:{tb.tb_lineno}"
    return f"{type(exc).__name__}: {exc} (at {where})"


def build_parser() -> _Parser:
    parser = _Parser(prog="younglab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["json", "tsv", "ascii"], default="ascii")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("partitions", help="list partitions in the frozen order")
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_partitions)

    p = sub.add_parser("kostka", help="count semistandard tableaux")
    p.add_argument("--mu", required=True, help="shape, e.g. 4,2")
    p.add_argument("--lambda", required=True, help="weight, e.g. 3,2,1")
    add_common(p)
    p.set_defaults(func=_cmd_kostka)

    p = sub.add_parser("ssyt", help="list semistandard tableaux")
    p.add_argument("--shape", required=True)
    p.add_argument("--weight", required=True, help="comma-separated counts")
    add_common(p)
    p.set_defaults(func=_cmd_ssyt)

    p = sub.add_parser("bijection", help="two-way counting certificate")
    p.add_argument("--lambda", required=True)
    p.add_argument("--rho", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("character-table", help="exact irreducible characters")
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_character_table)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("check", choices=tuple(SWEEPS))
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("linsys", help="multiplicity-deviation system of a shape")
    p.add_argument("--lambda", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_linsys)

    p = sub.add_parser("polymorphism", help="uniform-transport feasibility")
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_polymorphism)

    p = sub.add_parser("forms", help="form-space checks")
    p.add_argument("--check", choices=["example4", "statement2", "specht", "two-row"],
                   required=True)
    p.add_argument("--lambda", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_forms)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit status.  An exception that is
    not a YounglabError, ValueError or OSError is a bug too: it ends as one
    ``"kind": "internal"`` line and exit 2, never a traceback."""
    parser = build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
    except (SelfCheckError, NotInvariantError, OrthogonalizationError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "internal"}) + "\n")
        return 2
    except (_UsageError, YounglabError, ValueError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "usage"}) + "\n")
        return 2
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "io"}) + "\n")
        return 2
    except Exception as exc:  # a bug: report it as one line, not a traceback
        sys.stderr.write(json.dumps({"error": _describe(exc), "kind": "internal"}) + "\n")
        return 2
    finally:
        elapsed_ms = int((time.monotonic() - started) * 1000)
        sys.stderr.write(json.dumps({"timing_ms": elapsed_ms}) + "\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
