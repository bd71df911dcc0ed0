"""Semistandard and standard Young tableaux, Kostka numbers, and the
two-way counting recurrence with its explicit bijection.

A tableau is a tuple of row tuples.  A weight is a tuple of nonnegative
counts: weight[i] is the number of entries equal to i+1.  Weights are
compositions, not only partitions: removing one symbol occurrence from a
partition weight can leave a genuine composition, and those must be kept
distinct.  Kostka numbers are counted by Pieri steps (`_added`) on the
degree walk `partitions._walk`, tableaux listed by removing strips (`_ssyt`).
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import accumulate, product
from operator import add, index, le, lt
from typing import NamedTuple

from .errors import SelfCheckError, SizeMismatchError
from .partitions import (
    Partition,
    _BranchingSides,
    _enumerate_partitions,
    _successors,
    _times,
    _walk,
    check_degree,
    check_pair,
    check_partition,
)

Tableau = tuple[tuple[int, ...], ...]
Weight = tuple[int, ...]


def strip_weight(w: Weight) -> Weight:
    """Drop trailing zero counts."""
    while w and w[-1] == 0:
        w = w[:-1]
    return w


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
    check_degree(sum(shape))
    return shape


def enumerate_ssyt(shape: Partition, weight: Weight) -> list[Tableau]:
    """All semistandard tableaux of the given shape and weight, in
    lexicographic order of the row-reading word, built by the strip
    recursion `_ssyt`.  The strips come from the process-wide `_strips`
    table; the listing store is this call's own."""
    return _listed(_checked_shape(shape, weight), tuple(weight), {})


def _listed(shape: Partition, weight: Weight, store: dict) -> list[Tableau]:
    """The tableaux of shape and weight in row-reading-word lex order (tuple
    order): the entry of `store` for (shape, weight), or else the sorted
    `_ssyt` listing, put there whole once it is complete, so that an
    interrupted or concurrent listing never leaves or reads a part of one
    (two threads may both build an entry; either copy is whole).  The only
    code that reads or writes a store; no caller may mutate an entry."""
    found = store.get((shape, weight))
    if found is None:
        found = store[shape, weight] = sorted(_ssyt(shape, weight, store))
    return found


def _ssyt(mu: Partition, w: Weight, store: dict) -> list[Tableau]:
    """Tableaux of shape mu and weight w, unsorted: with k the last symbol
    that occurs (zero counts add no level), those of shape nu and weight
    w[:k-1], read through `_listed`, for mu/nu a horizontal strip of w[k-1]
    cells, with k appended row by row (nu[i] >= mu[i+1]: at most one new
    row, the last).  The strips are read from the `_strips` table, which
    lasts for the process."""
    k = len(w)
    while k and not w[k - 1]:
        k -= 1
    if not k:
        return [()]
    prefix = w[:k - 1]
    found = []
    for nu in _strips(mu, w[k - 1]):
        if len(nu) >= k:  # more rows than the prefix has symbols
            continue
        tails = [(k,) * (m - v) for m, v in zip(mu, nu)]
        new = ((k,) * mu[-1],) if len(nu) < len(mu) else ()
        found += [(*map(add, t, tails), *new) for t in _listed(nu, prefix, store)]
    return found


@lru_cache(maxsize=1)
def _prefix_store(n: int) -> dict:
    """The listing store shared by every certificate of degree n: each
    entry is the sorted listing of its key (shape, weight), written by
    `_listed`.  One degree is kept: the next degree's first certificate
    drops it."""
    return {}


def kostka(mu: Partition, lam: Weight) -> int:
    """Kostka number: the count of semistandard tableaux of shape mu and
    weight lam.  The weight may be any composition; the count only depends
    on it up to reordering, but no normalization is applied here so that
    the invariance stays testable.

    Counted without building a tableau, by one Pieri chain along lam (the
    symbols i fill a horizontal strip of lam[i-1] cells).  Each call checks
    the pair first and keeps no count.
    """
    mu = _checked_shape(mu, lam)
    level = {(): 1}
    for r in lam:
        if r:
            level = _times(level, r, _added)
    return level.get(mu, 0)


@cache
def _added(nu: Partition, r: int) -> tuple[tuple[Partition, int], ...]:
    """The Pieri step (Macdonald, Symmetric Functions, I.5.16): s_nu h_r is
    the sum of s_mu over the mu with mu/nu a horizontal strip of r > 0
    cells, nu[i] <= mu[i] <= nu[i-1]; each such mu paired with 1.  One
    table for the process, like `_strips`; at most sum over k < n of
    p(k)(n - k) keys."""
    top = sum(nu) + r
    bounds = (range(low, min(high, low + r) + 1) for low, high in zip(nu + (0,), (top,) + nu))
    return tuple((mu if mu[-1] else mu[:-1], 1) for mu in product(*bounds) if sum(mu) == top)


@lru_cache(maxsize=2)
def _kostka_table(n: int) -> dict[Partition, tuple[int, ...]]:
    """K(mu, lam) for every pair of partitions of n: row lam holds it for
    each mu up to lam in the frozen order, and a later mu, which does not
    dominate lam, counts 0 (the layout of `MultiplicityTable.rows`).  Row
    lam is the level h_lam of `_walk` with the Pieri step `_added`.  Two
    degrees are kept."""
    shapes = _enumerate_partitions(n)
    rows: dict[Partition, tuple[int, ...]] = {}
    for i, (lam, level) in enumerate(zip(shapes, _walk(n, _added))):
        row = tuple([level.get(mu, 0) for mu in shapes[:i + 1]])
        if len(row) - row.count(0) != len(level):
            raise SelfCheckError(f"a shape listed after {lam} has tableaux of weight {lam}")
        rows[lam] = row
    return rows


kostka.cache_info = _kostka_table.cache_info
kostka.cache_clear = _kostka_table.cache_clear


@cache
def _strips(mu: Partition, size: int) -> tuple[Partition, ...]:
    """The shapes nu with mu/nu a horizontal strip of `size` cells:
    mu[i+1] <= nu[i] <= mu[i] and |mu| - |nu| = size, trailing zeros
    removed.  One table for the process, read by `_ssyt`; at most sum over
    k <= n of p(k)(k+1) keys (1,245 for n <= 10)."""
    rest = sum(mu) - size
    bounds = (range(low, high + 1) for low, high in zip(mu[1:] + (0,), mu))
    return tuple(tuple(x for x in nu if x) for nu in product(*bounds) if sum(nu) == rest)


def eq2_check(lam: Partition, rho: Partition) -> tuple[int, int]:
    """Both sides of the Kostka recurrence for (lam, rho).

    left  = sum over covers mu of rho of K(mu, lam)
    right = sum over gamma covered by lam of c(lam, gamma) * K(rho, gamma)

    Each call checks the pair; the eq2 sweep reads `_eq2_sides` unchecked.
    """
    lam, rho = check_pair(lam, rho)
    return _eq2_sides(sum(lam)).pair(lam, rho)


@lru_cache(maxsize=1)
def _eq2_sides(n: int) -> _BranchingSides:
    """The eq2 sides of degree n, kept for the last degree read."""
    small = _kostka_table(n - 1)  # first: the next degree then drops n - 1, not n
    return _BranchingSides(_kostka_table(n), small, n)


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
    and nothing relates their two tableaux.  Pairs are read by position.
    """

    lam: Partition
    rho: Partition
    pairs: tuple[BijectionPair, ...] = ()

    @property
    def canonical(self) -> bool:
        return all(p[4] for p in self.pairs)

    @property
    def canonical_count(self) -> int:
        return sum(1 for p in self.pairs if p[4])

    def check(self) -> bool:
        """Verify that the pairing is a bijection between the two sides,
        without listing either side.

        lam and rho are checked as `eq2_check` checks them, so a list
        answers like the equal tuple; that check also makes rho a valid key
        of the `_successors` cover table.  Each pair must hold a removed
        symbol x of lam with its weight `gamma_weight` equal to lam minus
        one x, a left item whose shape covers rho and a right item of shape
        rho.  Each left item is walked once by `_fills`: rows weakly and
        columns strictly increase, and its entries, sorted, are the word of
        lam; with the shape a partition that is semistandardness with that
        weight, positive entries at most len(lam) included.  The corner row
        r of each cover over rho and the weights lam minus one x come from
        the process tables `_corners` and `_weights`; words and one set of
        right items per symbol x are made once per certificate.

        The `canonical` flag must say whether the pair is the per-item
        rule's: x is r and the right item s is `_canonical_image` of the
        left item t at r.  Such an s needs no walk of its own.  Deleting one
        r from row r of the semistandard t leaves the word of lam minus one
        r and the shape rho.  Every row of s weakly increases (row r is t's
        less one entry), and every pair of rows without row r is t's.  In
        column j the new row r holds t's entry of column j or j + 1, at
        least t's entry of column j, so it stays strictly below row r - 1.
        The one pair this can break is the new row r against row r + 1,
        and that pair is compared (when s has a row r + 1).  Every other
        right item is walked by `_fills` against the word of lam minus one
        x.

        No item may repeat, and the number of pairs must equal both sides of
        the recurrence (Kostka numbers from the degree tables).  Distinct
        members of a side, as many as the side has, are the whole side.
        The fields of a pair are read by position only, so a plain 5-tuple
        answers like the equal `BijectionPair`.  A field of another type (a
        tableau with list rows, say) or a pair of another length makes the
        check answer False, not raise.  Nothing is listed, and nothing is
        read from the store of listings (`_prefix_store`).
        """
        lam, rho = check_pair(self.lam, self.rho)
        corners = _corners(rho)
        word = [x for x, c in enumerate(lam, 1) for _ in range(c)]
        # x -> (lam minus one x, the word with its first x dropped, right items of x)
        sides = {x: (w, word[:i] + word[i + 1:], set()) for x, i, w
                 in zip(range(1, len(lam) + 1), accumulate((0,) + lam[:-1]), _weights(lam))}
        lefts = set()
        try:
            for t, x, s, w, flag in self.pairs:
                x = index(x)
                gamma, short, seen = sides[x]
                r = corners[tuple(map(len, t))]
                if not (w == gamma and _fills(t, word) and tuple(map(len, s)) == rho):
                    return False
                image = x == r and s == _canonical_image(t, r)
                # an image needs only its row r against row r + 1 (see above)
                fine = (r >= len(s) or all(map(lt, s[r - 1], s[r]))) if image else _fills(s, short)
                if not (flag == image and fine):
                    return False
                lefts.add(t)
                seen.add(s)
        except (KeyError, TypeError, ValueError):  # a malformed field or pair
            return False
        n = len(self.pairs)
        return (len(lefts) == sum(len(side[2]) for side in sides.values()) == n
                and _eq2_sides(sum(lam)).pair(lam, rho) == (n, n))


def _fills(t: Tableau, word: list[int]) -> bool:
    """Rows weakly and columns strictly increase (the shape is checked by
    the caller), and the entries sorted are `word`.  The first row has no
    column to compare, and a row of one cell no neighbour."""
    above = None
    for row in t:
        if len(row) > 1 and not all(map(le, row, row[1:])):
            return False
        if above is not None and not all(map(lt, above, row)):
            return False
        above = row
    return sorted(sum(t, ())) == word


@cache
def _weights(lam: Partition) -> tuple[Weight, ...]:
    """The weights lam with one occurrence of symbol x removed, for
    x = 1..len(lam), kept as compositions (trailing zeros dropped).  One
    table for the process, like `_strips`, read by `theorem4_bijection`
    and `check()`."""
    return tuple(strip_weight(lam[:i] + (c - 1,) + lam[i + 1:]) for i, c in enumerate(lam))


@cache
def _corners(rho: Partition) -> dict[Partition, int]:
    """Each cover mu of rho, in `_successors` order, with the 1-based row
    where mu exceeds rho by one cell.  One table for the process, like
    `_weights`; no caller may mutate an entry."""
    return {mu: next(i for i, (a, b) in enumerate(zip(mu, rho + (0,)), 1) if a != b)
            for mu in _successors(rho)}


def _canonical_image(t: Tableau, row: int) -> Tableau | None:
    """Delete one entry equal to `row` from row `row` and close the row up.

    The first equal entry is deleted: the row weakly increases, so its
    equal entries are adjacent and deleting any one of them gives the same
    row.  Returns None when the symbol is absent.  The result is not
    checked: one that is not semistandard misses the caller's lookup in the
    right side, and `check()` compares its row `row` with the next.
    """
    r = row - 1
    if row not in t[r]:
        return None
    j = t[r].index(row)
    new_row = t[r][:j] + t[r][j + 1:]
    return t[:r] + ((new_row,) if new_row else ()) + t[r + 1:]


def theorem4_bijection(lam: Partition, rho: Partition) -> BijectionCertificate:
    """Pair the two sides of the Kostka recurrence for (lam, rho).

    Per-item rule: a tableau whose shape covers rho in row r loses one
    symbol r of its r-th row (`_canonical_image`), and the row closes up.
    Where the result is an unused right item (that lookup is its only
    semistandardness check), the pair reproduces the worked small cases
    exactly.  The left items the rule leaves unpaired and the right items
    it does not reach are then paired in listing order: the k-th leftover
    left item takes the k-th unused right item.  Nothing relates the two
    tableaux of such a pair, so only the bijection itself is certified.

    Both partitions and the size cap are checked before any listing; the
    corner rows of the covers of rho and the weights lam minus one x are
    read from the process tables `_corners` and `_weights`.  Both sides are
    listed as `enumerate_ssyt` lists, through the store of the degree
    (`_prefix_store`), which every certificate of that degree shares.  Each
    left top level (mu, lam) is read through `_listed`: listed once per
    degree, then read again for every rho that mu covers; each right top
    level (rho, lam minus one x) is built and sorted here, and not stored.
    """
    lam, rho = check_pair(lam, rho)
    store = _prefix_store(sum(lam))
    weights = _weights(lam)
    # per removed symbol x, its right items in listing order
    right = [dict.fromkeys(sorted(_ssyt(rho, w, store)), True) for w in weights]
    pairs: list[BijectionPair | None] = []
    leftover: list[tuple[int, Tableau]] = []
    for mu, r in _corners(rho).items():
        for t in _listed(mu, lam, store):
            s = _canonical_image(t, r)
            if s is not None and right[r - 1].pop(s, False):
                pairs.append(BijectionPair(t, r, s, weights[r - 1], True))
            else:
                leftover.append((len(pairs), t))
                pairs.append(None)
    rest = [(x, w, s) for x, (w, items) in enumerate(zip(weights, right), 1) for s in items]
    if len(leftover) != len(rest):
        raise SelfCheckError("two-way count sides are not equinumerous")
    for (k, t), (x, w, s) in zip(leftover, rest):
        pairs[k] = BijectionPair(t, x, s, w, False)
    return BijectionCertificate(lam, rho, tuple(pairs))
