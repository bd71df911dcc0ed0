"""Integer partitions, the Young graph, and the dominance order.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  All functions treat partitions
as immutable values, so everything here is safe to call concurrently.

The enumeration order (descending lexicographic) is frozen: it is a linear
extension of reverse dominance, which the character orthogonalization in
:mod:`younglab.characters` relies on.
"""

from __future__ import annotations

import os
from functools import cache
from itertools import accumulate
from operator import ge, index

from .errors import EmptyPartitionError, LimitError, SizeMismatchError

Partition = tuple[int, ...]

DEFAULT_MAX_N = 20
_MAX_N_ENV = "YOUNGLAB_MAX_N"


def max_n() -> int:
    """Largest degree the enumeration routines accept (env YOUNGLAB_MAX_N)."""
    raw = os.environ.get(_MAX_N_ENV)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise LimitError(f"{_MAX_N_ENV} must be an integer, got {raw!r}") from None


def check_partition(parts, name: str = "partition") -> Partition:
    """Validate and normalize an iterable of parts into a Partition; a part
    that is not an integer (`operator.index` fails) raises ValueError
    naming `name`, never truncated."""
    try:
        p = tuple(map(index, parts))
    except TypeError:
        raise ValueError(f"{name} must have integer parts, got {parts}") from None
    for i, x in enumerate(p):
        if x < 1:
            raise ValueError(f"parts must be positive integers, got {p}")
        if i + 1 < len(p) and p[i + 1] > x:
            raise ValueError(f"parts must be weakly decreasing, got {p}")
    return p


def _require_partition(name: str, parts: Partition) -> None:
    """Raise ValueError naming `name` unless parts are positive, weakly
    decreasing integers (`operator.index` accepts them).  Reads the tuple in
    place, without the copy check_partition makes, so a sweep calling this
    per pair allocates nothing that lasts."""
    prev = parts[0] if parts else 1
    try:
        for part in parts:
            if index(part) > prev:
                prev = 0  # an increase fails like a nonpositive last part
                break
            prev = part
    except TypeError:
        prev = 0
    if prev < 1:
        raise ValueError(
            f"{name} must have positive, weakly decreasing integer parts, got {parts}")


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text format, e.g. "3,2,1"; "" is empty."""
    text = text.strip()
    if not text:
        return ()
    try:
        return check_partition(int(s) for s in text.split(","))
    except ValueError as exc:
        raise ValueError(f"invalid partition {text!r}: {exc}") from None


def format_partition(p: Partition) -> str:
    return ",".join(str(x) for x in p)


@cache
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in descending lexicographic order, (n) first.

    This order is a linear extension of reverse dominance: whenever
    mu strictly dominates lam, mu is listed before lam.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > max_n():
        raise LimitError(f"n={n} exceeds the configured maximum {max_n()}")
    if n == 0:
        return ((),)
    out: list[Partition] = []
    cur = [n]
    while True:
        out.append(tuple(cur))
        # Find the rightmost part > 1, decrement it, and repack the tail
        # greedily; this steps to the next partition in descending lex order.
        i = len(cur) - 1
        while i >= 0 and cur[i] == 1:
            i -= 1
        if i < 0:
            return tuple(out)
        rest = len(cur) - i  # cells freed by the tail plus the decrement
        cur[i] -= 1
        del cur[i + 1:]
        while rest > 0:
            nxt = min(cur[-1], rest)
            cur.append(nxt)
            rest -= nxt


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n."""
    return len(enumerate_partitions(n))


def conjugate(lam: Partition) -> Partition:
    """Column lengths of lam; an involution."""
    if not lam:
        return ()
    cols = [0] * lam[0]
    for part in lam:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


def dominates(mu: Partition, lam: Partition) -> bool:
    """True iff mu dominance-majorizes lam (every prefix sum at least as big).

    Both partitions must have the same total; raises SizeMismatchError
    otherwise.
    """
    if sum(mu) != sum(lam):
        raise SizeMismatchError(f"|{mu}| != |{lam}|")
    acc_mu = acc_lam = 0
    for k in range(max(len(mu), len(lam))):
        acc_mu += mu[k] if k < len(mu) else 0
        acc_lam += lam[k] if k < len(lam) else 0
        if acc_mu < acc_lam:
            return False
    return True


def removable_rows(lam: Partition) -> list[int]:
    """1-based rows whose last cell can be removed leaving a partition."""
    rows = []
    for i, part in enumerate(lam):
        below = lam[i + 1] if i + 1 < len(lam) else 0
        if part > below:
            rows.append(i + 1)
    return rows


def addable_rows(lam: Partition) -> list[int]:
    """1-based rows (including a fresh row len+1) where a cell can be added."""
    rows = [1]
    for i in range(1, len(lam) + 1):
        above = lam[i - 1]
        here = lam[i] if i < len(lam) else 0
        if here < above:
            rows.append(i + 1)
    return rows


def remove_cell(lam: Partition, row: int) -> Partition:
    """Remove the last cell of the given 1-based row."""
    parts = list(lam)
    parts[row - 1] -= 1
    if parts[row - 1] == 0:
        parts.pop(row - 1)
    return tuple(parts)


def add_cell(lam: Partition, row: int) -> Partition:
    """Add a cell at the end of the given 1-based row (row may be len+1)."""
    parts = list(lam)
    if row == len(parts) + 1:
        parts.append(1)
    else:
        parts[row - 1] += 1
    return tuple(parts)


def predecessors(lam: Partition) -> list[tuple[Partition, int]]:
    """All gamma covered by lam, with the removal multiplicity c(lam, gamma).

    c(lam, gamma) is the multiplicity in lam of the part value being
    shortened, i.e. the number of rows of lam whose shortening by one cell
    yields gamma.  Pairs are listed by removable row, top to bottom, which
    runs from the dominance-minimal gamma (= bar(lam)) upward.
    """
    if not lam:
        raise EmptyPartitionError("the empty partition has no predecessors")
    out = []
    for row in removable_rows(lam):
        gamma = remove_cell(lam, row)
        c = lam.count(lam[row - 1])
        out.append((gamma, c))
    return out


def successors(rho: Partition) -> list[Partition]:
    """All partitions covering rho in the Young graph, in enumeration order
    (a cell added to a higher row gives a lex-larger partition)."""
    return [add_cell(rho, row) for row in addable_rows(rho)]


def bar(lam: Partition) -> Partition:
    """Remove one cell from the topmost removable row.

    The result is the dominance-minimal element of predecessors(lam).
    """
    if not lam:
        raise EmptyPartitionError("bar of the empty partition is undefined")
    return remove_cell(lam, removable_rows(lam)[0])


def dominance_upset(lam: Partition) -> list[Partition]:
    """All mu of the same size with mu majorizing lam, in enumeration order.

    The prefix sums of lam are taken once.  A mu with more parts than lam
    falls short of sum(lam) at row len(lam); any other mu has reached the
    total by its last row, so comparing its own prefix sums suffices.
    """
    sums = list(accumulate(lam))
    return [
        mu for mu in enumerate_partitions(sum(lam))
        if len(mu) <= len(lam) and all(map(ge, accumulate(mu), sums))
    ]


@cache
def standard_count(lam: Partition) -> int:
    """Number of paths from the empty diagram to lam in the Young graph.

    Computed by the branching recursion f(lam) = sum of f(gamma) over the
    covered gamma, with f(empty) = 1; equals the number of standard tableaux
    of shape lam.
    """
    _require_partition("lam", lam)
    if not lam:
        return 1
    return sum(standard_count(gamma) for gamma, _ in predecessors(lam))
