"""Integer partitions, the Young graph, and the dominance order.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  All functions treat partitions
as immutable values, so everything here is safe to call concurrently.

The enumeration order (descending lexicographic) is frozen: it is a linear
extension of reverse dominance, which the character orthogonalization in
:mod:`younglab.characters` relies on; `_index(n)` gives each partition's
position in it.

The one slot codec of the package is here too (`_pack`, `_unpack`,
`_slot_width`): a vector of integers as one int, entry j in a signed slot
of W bytes at bit 8Wj (Kronecker substitution).
"""

from __future__ import annotations

import os
from bisect import bisect_left
from functools import cache, lru_cache
from itertools import accumulate, compress
from math import factorial, isqrt
from operator import ge, index

from .errors import EmptyPartitionError, LimitError, SelfCheckError, SizeMismatchError

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
    """The parts as a tuple (a tuple argument is returned, not copied), or
    a ValueError naming `name` unless they are positive, weakly decreasing
    and integers (`operator.index` accepts each, so 2.0 is refused)."""
    try:
        p = parts if isinstance(parts, tuple) else tuple(parts)
        prev = p[0] if p else 1
        for part in p:
            if index(part) > prev:
                prev = 0  # an increase fails like a nonpositive last part
                break
            prev = part
    except TypeError:
        prev = 0
    if prev < 1:
        raise ValueError(
            f"{name} must have positive, weakly decreasing integer parts, got {parts}")
    return p


def check_degree(n) -> int:
    """n as an int; ValueError unless index(n) works and n >= 0, LimitError over max_n()."""
    try:
        n = index(n)
    except TypeError:
        raise ValueError(f"n must be an integer, got {n!r}") from None
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > (cap := max_n()):
        raise LimitError(f"n={n} exceeds the configured maximum {cap}")
    return n


def check_pair(lam: Partition, rho: Partition) -> tuple[Partition, Partition]:
    """Both checked as partitions, then |lam| = |rho| + 1, then the size cap."""
    lam, rho = check_partition(lam, "lam"), check_partition(rho, "rho")
    if sum(lam) != sum(rho) + 1:
        raise SizeMismatchError(f"need |{lam}| = |{rho}| + 1")
    check_degree(sum(lam))
    return lam, rho


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text format, e.g. "3,2,1"; "" is empty."""
    text = text.strip()
    if not text:
        return ()
    try:
        return check_partition(tuple(int(s) for s in text.split(",")))
    except ValueError as exc:
        raise ValueError(f"invalid partition {text!r}: {exc}") from None


def format_partition(p: Partition) -> str:
    return ",".join(str(x) for x in p)


def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in descending lexicographic order, (n) first.

    This order is a linear extension of reverse dominance: whenever
    mu strictly dominates lam, mu is listed before lam.  Each call checks n first.
    """
    return _enumerate_partitions(check_degree(n))


@cache
def _enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """The partitions (f, *p) for each first part f from n down to 1 and
    each p of n - f with first part at most f, in the order of the cached
    table of n - f: descending lex order, in which those p are a tail."""
    if n == 0:
        return ((),)
    out: list[Partition] = []
    for f in range(n, 0, -1):
        tails = _enumerate_partitions(n - f)
        start = bisect_left(tails, -f, key=lambda p: -p[0]) if n - f > f else 0
        head = (f,)
        out += [head + p for p in tails[start:]]
    return tuple(out)


enumerate_partitions.cache_info = _enumerate_partitions.cache_info
enumerate_partitions.cache_clear = _enumerate_partitions.cache_clear


def _walk(n: int, terms):
    """One {shape: coefficient} level per partition lam of n, in the frozen
    order: the product from {(): 1} of one factor per part of lam, largest
    first, each applied by `_times(level, r, terms)`.  Depth-first, so the
    partitions share the levels of their common prefix, one alive per depth."""

    def down(level: dict[Partition, int], left: int, top: int):
        if not left:
            yield level
        for r in range(min(left, top), 0, -1):
            yield from down(_times(level, r, terms), left - r, r)

    return down({(): 1}, n, n)


def _times(level: dict[Partition, int], r: int, terms) -> dict[Partition, int]:
    """The level times one factor of degree r: each (nu, c) gives c * k to
    every (mu, k) in `terms(nu, r)`."""
    new: dict[Partition, int] = {}
    for nu, c in level.items():
        for mu, k in terms(nu, r):
            new[mu] = new.get(mu, 0) + c * k
    return new


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
    otherwise.  A mu with more parts than lam falls short of the total at
    row len(lam), so comparing the prefix sums both have suffices.
    """
    if sum(mu) != sum(lam):
        raise SizeMismatchError(f"|{mu}| != |{lam}|")
    return all(map(ge, accumulate(mu), accumulate(lam)))


def predecessors(lam: Partition) -> list[tuple[Partition, int]]:
    """All gamma covered by lam, with the removal multiplicity c(lam, gamma).

    c(lam, gamma) is the multiplicity in lam of the part value being
    shortened, i.e. the number of rows of lam whose shortening by one cell
    yields gamma.  Pairs are listed by removable row (one longer than the
    row below), top to bottom, which runs from the dominance-minimal gamma
    (= bar(lam)) upward.
    """
    lam = tuple(lam)
    if not lam:
        raise EmptyPartitionError("the empty partition has no predecessors")
    return [
        (lam[:i] + ((part - 1,) if part > 1 else ()) + lam[i + 1:], lam.count(part))
        for i, (part, below) in enumerate(zip(lam, lam[1:] + (0,)))
        if part > below
    ]


def successors(rho: Partition) -> list[Partition]:
    """All partitions covering rho in the Young graph, in enumeration order
    (a cell added to a higher row gives a lex-larger partition): a cell on
    the first row of each run of equal parts, then on a fresh row."""
    rho = tuple(rho)
    out = []
    above = 0  # parts are positive, so row 0 begins a run
    for i, part in enumerate(rho):
        if part != above:
            out.append(rho[:i] + (part + 1,) + rho[i + 1:])
            above = part
    out.append(rho + (1,))
    return out


@cache
def _predecessors(lam: Partition) -> tuple[tuple[Partition, int], ...]:
    """`predecessors(lam)` as a tuple, built once per shape for the process.
    Only checked or generated partitions may reach it: at most
    sum over k <= 20 of p(k) = 2,714 keys."""
    return tuple(predecessors(lam))


@cache
def _successors(rho: Partition) -> tuple[Partition, ...]:
    """`successors(rho)` as a tuple, built once per shape for the process,
    on the same terms as `_predecessors`."""
    return tuple(successors(rho))


@cache
def _index(n: int) -> dict[Partition, int]:
    """{lam: its position in the frozen order} over the partitions of n."""
    return {lam: j for j, lam in enumerate(_enumerate_partitions(n))}


def _slot_width(bound: int) -> int:
    """Bytes per signed slot that holds every value of absolute value at
    most bound."""
    return bound.bit_length() // 8 + 1


def _halves(count: int, width: int) -> int:
    """Half a slot in each of count slots: added to signed slots, it makes
    every slot an unsigned byte slice."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(values, width: int) -> int:
    """values in signed slots of width bytes, the first lowest."""
    half = 1 << 8 * width - 1
    data = b"".join((v + half).to_bytes(width, "little") for v in values)
    return int.from_bytes(data, "little") - _halves(len(values), width)


def _unpack(x: int, count: int, width: int) -> list[int]:
    """The count lowest signed slots of x, lowest first."""
    size, half, read = count * width, 1 << 8 * width - 1, int.from_bytes
    data = ((x + _halves(count, width)) & (1 << 8 * size) - 1).to_bytes(size, "little")
    return [read(data[k:k + width], "little") - half for k in range(0, size, width)]


class _BranchingSides:
    """Both sides of the branching recurrence for every pair (lam, rho),
    lam of n and rho of n - 1, from tables `big` of degree n and `small` of
    degree n - 1, each row lam holding the values at (mu, lam) for mu up to
    lam in the frozen order (later values 0, as in `MultiplicityTable`):

      left  = sum over mu covering rho of big(mu, lam)
      right = sum over gamma covered by lam of c(lam, gamma) * small(rho, gamma)

    `packed(lam)` gives both for every rho at once, rho's value in the slot
    of its index, `width` bytes each: left sums big(mu, lam) * D_mu, D_mu
    with 1 in the slot of each shape mu covers, and right sums c(lam, gamma)
    times the row of gamma packed (once per gamma).  Every row is checked
    to lie in 0..isqrt(n!) first (Kostka numbers are at most f^mu, and
    multiplicities at most the square root of a double-coset count), so a
    slot, a sum of at most n of them, cannot spill and equal packed sides
    are equal in every slot.  `pair` reads one pair back; the sides of lam
    are decoded once and kept.  Both memos hold values that depend only on
    the tables, so two threads filling one entry fill it alike.  The shapes
    are not checked."""

    __slots__ = ("big", "small", "bound", "width", "covers", "columns", "read")

    def __init__(self, big: dict, small: dict, n: int):
        self.big, self.small, self.columns, self.read = big, small, {}, {}
        self.bound = isqrt(factorial(n))
        self.width = _slot_width(n * self.bound)
        index = _index(n - 1)
        self.covers = [sum(1 << 8 * self.width * index[gamma] for gamma, _ in _predecessors(mu))
                       for mu in _enumerate_partitions(n)]

    def _row(self, table: dict, lam: Partition) -> tuple[int, ...]:
        row = table[lam]
        if min(row) < 0 or max(row) > self.bound:
            raise SelfCheckError(f"table entry out of bound at {lam}")
        return row

    def packed(self, lam: Partition) -> tuple[int, int]:
        row, columns = self._row(self.big, lam), self.columns
        left = sum([t * d for t, d in zip(row, self.covers) if t])
        for gamma, _ in _predecessors(lam):
            if gamma not in columns:
                columns[gamma] = _pack(self._row(self.small, gamma), self.width)
        return left, sum([c * columns[gamma] for gamma, c in _predecessors(lam)])

    def pair(self, lam: Partition, rho: Partition) -> tuple[int, int]:
        """Both sides for (lam, rho); lam's sides are decoded once and kept."""
        index, sides = _index(sum(rho)), self.read.get(lam)
        if sides is None:
            left, right = (_unpack(x, len(index), self.width) for x in self.packed(lam))
            sides = self.read[lam] = list(zip(left, right))
        return sides[index[rho]]


def bar(lam: Partition) -> Partition:
    """Remove one cell from the topmost removable row.

    The result is the dominance-minimal element of predecessors(lam).
    """
    return predecessors(lam)[0][0]


_BITS = bytes.maketrans(b"01", b"\0\1")


def dominance_upset(lam: Partition) -> list[Partition]:
    """All mu of the same size with mu majorizing lam, in enumeration order.

    Read off lam's mask in the `_upsets` table of its degree, its bits
    lowest first as a 0/1 selector over the partitions of that degree.
    Only the degree is checked, by `enumerate_partitions`: a lam that is
    not a partition is no key in the table and raises KeyError.
    """
    lam = tuple(lam)
    n = sum(lam)
    shapes = enumerate_partitions(n)
    bits = bin(_upsets(n)[lam])[:1:-1]  # "0"/"1" for the bits 0, 1, ... of the mask
    return list(compress(shapes, bits.encode().translate(_BITS)))


@lru_cache(maxsize=2)
def _upsets(n: int) -> dict[Partition, int]:
    """{lam: mask} over the partitions of n, bit k of the mask set when the
    k-th partition in the frozen order dominates lam.  The order is a
    linear extension of reverse dominance, so every cover of lam comes
    before lam, and lam's mask is its own bit OR'ed with its covers' masks.
    Two degrees are kept: `statement1_check` reads n and n - 1."""
    masks: dict[Partition, int] = {}
    for k, lam in enumerate(_enumerate_partitions(n)):
        mask = 1 << k
        for mu in _dominance_covers(lam):
            mask |= masks[mu]
        masks[lam] = mask
    return masks


def _dominance_covers(lam: Partition) -> list[Partition]:
    """The partitions covering lam in the dominance order (T. Brylawski,
    *The lattice of integer partitions*, Discrete Math. 6, 1973): one cell
    moved from row j up to row i < j, where j = i + 1 or lam[i] = lam[j],
    and the result is still a partition.  So row j is the last of its run
    of equal parts, and row i is the first of the same run when that is
    not j, else row j - 1 when the run above is that one row."""
    out = []
    last = len(lam) - 1
    start = above = 0  # the first rows of the run of row j and of the run above
    for j in range(1, len(lam)):
        if lam[j] < lam[j - 1]:
            above, start = start, j
        if j < last and lam[j] == lam[j + 1]:
            continue  # row j does not end its run
        if start < j:
            i = start
        elif above == j - 1:
            i = j - 1
        else:
            continue
        mu = list(lam)
        mu[i] += 1
        mu[j] -= 1
        out.append(tuple(mu) if mu[j] else tuple(mu[:j]))
    return out


def standard_count(lam: Partition) -> int:
    """Number of paths from the empty diagram to lam in the Young graph.

    Computed by the branching recursion f(lam) = sum of f(gamma) over the
    covered gamma, with f(empty) = 1; equals the number of standard tableaux
    of shape lam.  Each call checks lam first; the cached recursion does not.
    """
    return _standard_count(check_partition(lam, "lam"))


@cache
def _standard_count(lam: Partition) -> int:
    return sum(_standard_count(gamma) for gamma, _ in predecessors(lam)) if lam else 1


standard_count.cache_info = _standard_count.cache_info
standard_count.cache_clear = _standard_count.cache_clear
