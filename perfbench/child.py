"""One repetition of a benchmark workload in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N [--size full|tiny] [--trace]
    python3 perfbench/child.py --probe

``run.py`` starts this with ``src`` on PYTHONPATH and YOUNGLAB_MAX_N set.
It prints one JSON object on stdout.  ``imported_at`` is ``time.monotonic()``
just after ``import younglab`` (a system-wide clock on Linux); the parent
subtracts its own reading taken before starting the process, which gives
the set-up time.  ``ref_s`` and ``ref_cpu_s`` time ``reference.reference()``
in this process, which the parent uses to scale the timings to the
reference speed.  ``--probe`` stops there, after one reference run.  A
repetition runs the reference just before and just after its workload, so
that a drift of the machine's speed during a long workload is averaged:
``ref_s`` is the mean wall time of the two runs and ``ref_cpu_s`` their
summed CPU time.

Before the workload starts, the cached public tables must be empty: work
moved into import time then shows in the set-up time instead of vanishing
from the workload.  A warm table ends the process with exit code 3.
"""

import sys
import time

if sys.flags.optimize:
    sys.exit("refusing to run under python -O: younglab's witness, cut and "
             "count checks are asserts and would not run")

import younglab  # noqa: E402  set-up ends when this import returns

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COLD_TABLES = (
    "partitions.enumerate_partitions",
    "partitions.standard_count",
    "tableaux.kostka",
    "characters.perm_character",
    "characters.irreducible_characters",
    "characters.multiplicity_table",
)


def warm_tables() -> dict[str, int]:
    """The cold-start tables that already hold entries; a table that no
    longer exists or is no longer cached has nothing to be warm."""
    out = {}
    for name in COLD_TABLES:
        module, attr = name.split(".")
        fn = getattr(getattr(younglab, module, None), attr, None)
        info = getattr(fn, "cache_info", None)
        if info is not None and info().currsize:
            out[name] = info().currsize
    return out


def run_parts(parts: list, golden: dict) -> dict:
    """Run every part, timing from the first library call to the last
    result, then check each record.  A crash stops the workload and fails
    every item not yet covered."""
    done: list[list] = []
    errors = []
    started = time.perf_counter()
    try:
        for part in parts:
            records: list = []
            done.append(records)
            for weight, record in part.run():
                records.append((weight, record))
    except Exception as exc:  # the program under test failed; record it
        errors.append(f"{parts[len(done) - 1].name}: {type(exc).__name__}: {exc}")
    wall_s = time.perf_counter() - started

    items = sum(part.items for part in parts)
    failed = items - sum(w for records in done for w, _ in records)
    stdout_bytes = 0
    for part, records in zip(parts, done):
        expected = golden.get(part.name, {})
        for weight, record in records:
            stdout_bytes += part.stdout_bytes(record)
            if not (part.ok(record)
                    and expected.get(part.key(record)) == part.value(record)):
                failed += weight
    return {"wall_s": wall_s, "items": items, "failed": failed,
            "errors": errors, "stdout_bytes": stdout_bytes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.probe:
        ref_s, ref_cpu_s = reference.reference()
        print(json.dumps({"imported_at": IMPORTED_AT, "ref_s": ref_s, "ref_cpu_s": ref_cpu_s}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    warm = warm_tables()
    if warm:
        sys.stderr.write(json.dumps({"error": "cache tables warm at workload start",
                                     "tables": warm}) + "\n")
        return 3
    parts = workloads.build(args.workload, args.size, args.seed)
    golden = workloads.load_golden()[args.size][args.workload]
    before = reference.reference()
    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
    result = run_parts(parts, golden)
    result["imported_at"] = IMPORTED_AT
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tr is not None:
        tr.uninstall()
        result["layers"] = tr.metrics(result["stdout_bytes"])
    after = reference.reference()
    result["ref_s"] = (before[0] + after[0]) / 2
    result["ref_cpu_s"] = before[1] + after[1]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
