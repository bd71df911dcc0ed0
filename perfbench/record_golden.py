"""Record the expected outputs in golden.json from the current program.

    PYTHONPATH=src YOUNGLAB_MAX_N=20 python3 perfbench/record_golden.py

Run it only on a revision whose outputs are known to be right (the
acceptance suite passes).  Each part's own invariants must hold, or
nothing is written.
"""

import json
import sys

import workloads


def main() -> int:
    golden: dict = {}
    for size in workloads.SIZES:
        for name in workloads.WORKLOADS:
            entry = golden.setdefault(size, {}).setdefault(name, {})
            for part in workloads.build(name, size, seed=0):
                values = entry.setdefault(part.name, {})
                for _, record in part.run():
                    if not part.ok(record):
                        sys.exit(f"{size} {name} {part.name}: invariant fails on {record!r}")
                    values[part.key(record)] = part.value(record)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
