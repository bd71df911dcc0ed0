"""Semistandard and standard Young tableaux, Kostka numbers, and the
two-way counting recurrence with its explicit bijection.

A tableau is a tuple of row tuples.  A weight is a tuple of nonnegative
counts: weight[i] is the number of entries equal to i+1.  Weights are
compositions, not only partitions: removing one symbol occurrence from a
partition weight can leave a genuine composition, and those must be kept
distinct.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, chain, product
from operator import add, index, le, lt
from typing import NamedTuple

from .errors import LimitError, SelfCheckError, SizeMismatchError
from .partitions import (
    Partition,
    _require_partition,
    check_partition,
    max_n,
    predecessors,
    successors,
)

Tableau = tuple[tuple[int, ...], ...]
Weight = tuple[int, ...]


def strip_weight(w: Weight) -> Weight:
    """Drop trailing zero counts."""
    while w and w[-1] == 0:
        w = w[:-1]
    return w


def is_semistandard(t: Tableau) -> bool:
    """Rows weakly and columns strictly increase, the first row under a
    row of zeros (so entries are positive); row lengths weakly decrease."""
    for i, row in enumerate(t):
        above = t[i - 1] if i else (0,) * len(row)
        if len(row) > len(above) or not (
                all(map(lt, above, row)) and all(map(le, row, row[1:]))):
            return False
    return True


def format_tableau(t: Tableau) -> str:
    return "/".join(",".join(str(x) for x in row) for row in t)


def _checked_shape(shape: Partition, weight: Weight) -> Partition:
    """Validate a (shape, weight) pair before any tableau work: the shape
    is a partition, the counts are nonnegative integers, the sizes agree and
    do not exceed YOUNGLAB_MAX_N.  Returns the normalized shape."""
    shape = check_partition(shape, "shape")
    try:
        bad = any(index(c) < 0 for c in weight)
    except TypeError:  # not an integer
        bad = True
    if bad:
        raise ValueError(f"weight counts must be nonnegative integers, got {weight}")
    if sum(shape) != sum(weight):
        raise SizeMismatchError(f"|{shape}| != |{weight}|")
    if sum(shape) > max_n():
        raise LimitError(f"n={sum(shape)} exceeds the configured maximum {max_n()}")
    return shape


def enumerate_ssyt(shape: Partition, weight: Weight) -> list[Tableau]:
    """All semistandard tableaux of the given shape and weight, in
    lexicographic order of the row-reading word, built by the strip
    recursion `kostka` counts with.  The strips come from the process-wide
    `_strips` table; the tableaux are memoized for this call only."""
    return _listed(_checked_shape(shape, weight), tuple(weight), {})


def _listed(shape: Partition, weight: Weight, memo: dict) -> list[Tableau]:
    """The tableaux of `_ssyt` in row-reading-word lex order (tuple order)."""
    return sorted(_ssyt(shape, weight, memo))


def _ssyt(mu: Partition, w: Weight, memo: dict) -> list[Tableau]:
    """Tableaux of shape mu and weight w, unsorted: those of shape nu and
    weight w[:-1], for mu/nu a horizontal strip of w[-1] cells, with len(w)
    appended row by row.  The strips are read from the `_strips` table,
    which lasts for the process; the tableaux go into `memo`, which lasts
    for one listing or one certificate (a process-wide tableau memo would
    hold every list ever built) and holds lists no caller may mutate."""
    if len(mu) > len(w):
        return []
    if not w:
        return [()]
    found = memo.get((mu, w))
    if found is None:
        found = memo[mu, w] = []
        for nu in _strips(mu, w[-1]):
            pad = ((),) * (len(mu) - len(nu))
            tails = [(len(w),) * (m - v) for m, v in zip(mu, nu + (0,) * len(pad))]
            found += [tuple(map(add, t + pad, tails)) for t in _ssyt(nu, w[:-1], memo)]
    return found


@cache
def kostka(mu: Partition, lam: Weight) -> int:
    """Kostka number: the count of semistandard tableaux of shape mu and
    weight lam.  The weight may be any composition; the count only depends
    on it up to reordering, but no normalization is applied here so that
    the invariance stays testable.

    Counted without building a tableau: the cells holding the largest
    symbol form a horizontal strip of lam[-1] cells, so K(mu, lam) is the
    sum of K(nu, lam[:-1]) over the shapes nu left when such a strip is
    removed from mu (Macdonald, Symmetric Functions, I.5).
    """
    mu = _checked_shape(mu, lam)
    if not lam:
        return 1
    if len(mu) > len(lam):
        return 0
    return sum(kostka(nu, lam[:-1]) for nu in _strips(mu, lam[-1]))


@cache
def _strips(mu: Partition, size: int) -> tuple[Partition, ...]:
    """The shapes nu with mu/nu a horizontal strip of `size` cells:
    mu[i+1] <= nu[i] <= mu[i] and |mu| - |nu| = size, trailing zeros
    removed.  One table for the process, shared by `kostka` and every
    `_ssyt` memo; at most sum over k <= n of p(k)(k+1) keys (1,245 for
    n <= 10)."""
    rest = sum(mu) - size
    bounds = (range(low, high + 1) for low, high in zip(mu[1:] + (0,), mu))
    return tuple(tuple(x for x in nu if x) for nu in product(*bounds) if sum(nu) == rest)


def eq2_check(lam: Partition, rho: Partition) -> tuple[int, int]:
    """Both sides of the Kostka recurrence for (lam, rho).

    left  = sum over covers mu of rho of K(mu, lam)
    right = sum over gamma covered by lam of c(lam, gamma) * K(rho, gamma)
    """
    _require_partition("lam", lam)
    _require_partition("rho", rho)
    _check_consecutive(lam, rho)
    left = sum(kostka(mu, lam) for mu in successors(rho))
    right = sum(c * kostka(rho, gamma) for gamma, c in predecessors(lam))
    return left, right


def _check_consecutive(lam: Partition, rho: Partition) -> None:
    if sum(lam) != sum(rho) + 1:
        raise SizeMismatchError(f"need |{lam}| = |{rho}| + 1")


def enumerate_standard(lam: Partition) -> list[Tableau]:
    """All standard tableaux of shape lam (weight all-ones)."""
    return enumerate_ssyt(lam, (1,) * sum(lam))


class BijectionPair(NamedTuple):
    mu_tableau: Tableau
    removed_symbol: int
    rho_tableau: Tableau
    gamma_weight: Weight
    canonical: bool


class BijectionCertificate(NamedTuple):
    """A pairing witnessing the two-way count for (lam, rho).

    The left side lists every semistandard tableau of weight lam whose shape
    covers rho; the right side lists every semistandard tableau of shape rho
    whose weight is lam with one symbol occurrence removed (weights kept as
    compositions).  A pair is `canonical` when the per-item rule produced
    it; the others pair the leftover items of both sides in listing order,
    and nothing relates their two tableaux.
    """

    lam: Partition
    rho: Partition
    pairs: tuple[BijectionPair, ...] = ()

    @property
    def canonical(self) -> bool:
        return all(p.canonical for p in self.pairs)

    @property
    def canonical_count(self) -> int:
        return sum(1 for p in self.pairs if p.canonical)

    def check(self) -> bool:
        """Verify that the pairing is a bijection between the two sides,
        without listing either side.

        Each pair must hold a removed symbol x of lam with its weight
        `gamma_weight` equal to lam minus one x, a left item whose shape
        covers rho and a right item of shape rho.  Each tableau is walked
        once by `_fills`: rows weakly and columns strictly increase, and its
        entries, sorted, are the word of lam (left) or of lam minus one x
        (right), built once per certificate.  With the shape a partition
        that is semistandardness with that weight, positive entries at most
        len(lam) included.  No item may repeat, and the number of pairs
        must equal both counts of `eq2_check` (Kostka numbers from the strip
        recursion).  Distinct members of a side, as many as the side has,
        are the whole side.
        """
        lam, rho = self.lam, self.rho
        covers = set(successors(rho))
        word = [x for x, c in enumerate(lam, 1) for _ in range(c)]
        # minus[x]: the word with its first x dropped, for x = 1..len(lam)
        minus = [None] + [word[:i] + word[i + 1:] for i in accumulate((0,) + lam[:-1])]
        for t, x, s, w, _ in self.pairs:
            if not (1 <= x <= len(lam) and w == _minus_one(lam, x)):
                return False
            if not (tuple(map(len, t)) in covers and _fills(t, word)):
                return False
            if not (tuple(map(len, s)) == rho and _fills(s, minus[x])):
                return False
        n = len(self.pairs)
        if len({p.mu_tableau for p in self.pairs}) != n:
            return False
        if len({(p.gamma_weight, p.rho_tableau) for p in self.pairs}) != n:
            return False
        return eq2_check(lam, rho) == (n, n)


def _fills(t: Tableau, word: list[int]) -> bool:
    """Rows weakly and columns strictly increase (the shape is checked by
    the caller), and the entries sorted are `word`."""
    above: tuple[int, ...] = ()
    for row in t:
        if not (all(map(lt, above, row)) and all(map(le, row, row[1:]))):
            return False
        above = row
    return sorted(chain.from_iterable(t)) == word


def _minus_one(lam: Partition, x: int) -> Weight:
    """The weight lam with one occurrence of symbol x removed, kept as a
    composition (trailing zeros dropped)."""
    return strip_weight(lam[:x - 1] + (lam[x - 1] - 1,) + lam[x:])


def _corner_row(mu: Partition, rho: Partition) -> int:
    """1-based row where mu exceeds rho by one cell."""
    padded = rho + (0,) * (len(mu) - len(rho))
    for i, (a, b) in enumerate(zip(mu, padded)):
        if a != b:
            return i + 1
    raise ValueError(f"{mu} does not cover {rho}")


def _canonical_image(t: Tableau, row: int) -> Tableau | None:
    """Delete the rightmost entry equal to `row` in row `row` and close it.

    Returns None when the symbol is absent or the result is not
    semistandard; the caller then pairs the item in listing order.
    """
    r = row - 1
    cols = [j for j, x in enumerate(t[r]) if x == row]
    if not cols:
        return None
    j = cols[-1]
    new_row = t[r][:j] + t[r][j + 1:]
    rows = t[:r] + ((new_row,) if new_row else ()) + t[r + 1:]
    return rows if is_semistandard(rows) else None


def theorem4_bijection(lam: Partition, rho: Partition) -> BijectionCertificate:
    """Pair the two sides of the Kostka recurrence for (lam, rho).

    Per-item rule: a tableau whose shape covers rho in row r loses the
    rightmost symbol r of its r-th row, and the row closes up.  Whenever
    that is defined and injective it reproduces the worked small cases
    exactly.  The left items the rule leaves unpaired (it deletes nothing
    when symbol r is missing from row r) and the right items it does not
    reach are then paired in listing order: the k-th leftover left item
    takes the k-th unused right item.  Nothing relates the two tableaux of
    such a pair, so only the bijection itself is certified.

    Both partitions and the size cap are checked before any listing; both
    sides share one `_ssyt` memo and are listed as `enumerate_ssyt` lists.
    """
    lam, rho = check_partition(lam, "lam"), check_partition(rho, "rho")
    _check_consecutive(lam, rho)
    if sum(lam) > max_n():
        raise LimitError(f"n={sum(lam)} exceeds the configured maximum {max_n()}")
    memo: dict = {}  # shared by both sides: their weight prefixes overlap
    left = [
        (t, _corner_row(mu, rho))
        for mu in successors(rho)
        for t in _listed(mu, lam, memo)
    ]
    # (gamma weight, tableau) -> removed symbol, in listing order
    right: dict[tuple[Weight, Tableau], int] = {}
    for x in range(1, len(lam) + 1):
        w = _minus_one(lam, x)
        right.update(((w, s), x) for s in _listed(rho, w, memo))

    pairs: list[BijectionPair | None] = [None] * len(left)
    for k, (t, r) in enumerate(left):
        s = _canonical_image(t, r)
        if s is None:
            continue
        w = _minus_one(lam, r)
        if right.pop((w, s), None):
            pairs[k] = BijectionPair(t, r, s, w, True)

    leftover = [k for k, p in enumerate(pairs) if p is None]
    if len(leftover) != len(right):
        raise SelfCheckError("two-way count sides are not equinumerous")
    for k, ((w, s), x) in zip(leftover, right.items()):
        pairs[k] = BijectionPair(left[k][0], x, s, w, False)
    return BijectionCertificate(lam, rho, tuple(pairs))
