"""A fixed pure-Python computation that measures the machine's speed.

The benchmark runs on shared hosts whose speed drifts by 20-40% over
minutes, and differs from one process to the next, as other tenants load
the caches and memory bus.  Every child process times ``reference()``
just before its workload, and the parent scales the workload's timings
by ``REFERENCE_S / reference time``: they read as if the reference had
taken exactly ``REFERENCE_S``.  The reference does the same kind of work
as younglab (big-integer elimination, tuple building, dict updates) in
code that never changes with the library, so a change to younglab moves
the scaled timings in full while a change in the machine's speed cancels.

It allocates little, so that it does not raise the child's peak RSS.
"""

import time

# Nominal duration of one reference() call: the scaled timings are those
# of a machine on which the reference takes this long.
REFERENCE_S = 0.1

_SIZE = 44  # matrix order of the elimination
_DEGREE = 36  # partitions enumerated


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _bareiss_rank(m: list[list[int]]) -> int:
    rows, cols = len(m), len(m[0])
    prev, r = 1, 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev, r = m[r][c], r + 1
    return r


def _work() -> tuple[int, int]:
    x, matrix = 12345, []
    for _ in range(_SIZE):
        row = []
        for _ in range(_SIZE):
            x = (x * 1103515245 + 12345) % 2**31
            row.append((x >> 16) % 3 - 1 if (x >> 8) % 4 else 0)
        matrix.append(row)
    rank = _bareiss_rank(matrix)
    by_first: dict[int, int] = {}
    for p in _partitions(_DEGREE, _DEGREE):
        by_first[p[0]] = by_first.get(p[0], 0) + sum(i * v for i, v in enumerate(p))
    return rank, sum(by_first.values())


EXPECTED = (44, 1881273)


def reference() -> tuple[float, float]:
    """Run the reference once; return its wall and CPU seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    result = _work()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if result != EXPECTED:
        raise RuntimeError(f"reference computation gave {result}, expected {EXPECTED}")
    return wall, cpu
