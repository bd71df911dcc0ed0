"""Exact class functions on symmetric groups.

Values are Python integers indexed by cycle type, one value per partition
of the degree in the frozen enumeration order.  The permutation character
of a row-stabilizer subgroup at a class rho is the coefficient of m_lam in
the power sum p_rho.  All of one degree come from the degree walk
`partitions._walk`, one power sum p_r per part in the monomial basis (the
cached step `_monomial_terms`); the degree's table is cached and
`perm_character` looks a shape up in it.  Irreducible characters are
recovered by orthogonalizing the permutation characters along the
dominance order, which keeps everything inside exact arithmetic and leaves
Kostka numbers (the same walk with the Pieri step, in
:mod:`younglab.tableaux`) a cross-check rather than an ingredient.

The orthogonalization packs a vector into one int with the slot codec of
:mod:`younglab.partitions` (Kronecker substitution), entry j in a signed
slot of W bytes at bit 8Wj, so one big-integer sum does a whole vector
step: with Q_rho holding chi(rho) of the j-th irreducible found in slot j,
sum_rho |C_rho| psi(rho) Q_rho holds n! times every multiplicity in psi.
Checked bounds fix W (`_slot_widths`, by the one width rule
`partitions._slot_width`), so no slot can wrap.  The tables of the last
two degrees read are kept.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import factorial, isqrt
from typing import NamedTuple
from operator import mul, sub

from .errors import DegreeMismatchError, OrthogonalizationError, SizeMismatchError
from .partitions import (
    Partition,
    _BranchingSides,
    _enumerate_partitions,
    _index,
    _pack,
    _slot_width,
    _standard_count,
    _unpack,
    _walk,
    check_degree,
    check_pair,
    check_partition,
    conjugate,
    enumerate_partitions,
    predecessors,
)

__all__ = [
    "ClassFunction",
    "MultiplicityTable",
    "class_size",
    "class_types",
    "conjugate_twist_check",
    "eq1_check",
    "ind_sgn_character",
    "inner",
    "irreducible_characters",
    "lemma1_check",
    "multiplicity_table",
    "perm_character",
    "restrict",
    "sign_twist",
    "sign_value",
    "theorem1_check",
    "theorem1_components",
]


def class_types(n: int) -> tuple[Partition, ...]:
    """Cycle types of degree n, in the frozen partition order."""
    return enumerate_partitions(n)


def class_size(rho: Partition) -> int:
    """Number of permutations with cycle type rho: n!/z_rho."""
    n = sum(check_partition(rho, "rho"))
    z = 1
    for length in set(rho):
        m = rho.count(length)
        z *= length ** m * factorial(m)
    return factorial(n) // z


@cache
def _class_sizes(n: int) -> tuple[int, ...]:
    return tuple(class_size(rho) for rho in class_types(n))


def sign_value(rho: Partition) -> int:
    """Sign of any permutation of cycle type rho."""
    return -1 if (sum(rho) - len(rho)) % 2 else 1


class ClassFunction:
    """Integer-valued function on the conjugacy classes of degree n; an
    immutable value (it lives in process-wide caches), not a sequence."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values):
        self._fill(n, values, class_types(n))

    @classmethod
    def _of(cls, n: int, values) -> "ClassFunction":
        """The library's own constructions, at a degree it reached through
        a check (a table's degree, or one below by restriction): the length
        is taken from the cached partitions of n and the cap is not read."""
        f = object.__new__(cls)
        f._fill(n, values, _enumerate_partitions(n))
        return f

    def _fill(self, n: int, values, types: tuple[Partition, ...]) -> None:
        values = tuple(values)
        if len(values) != len(types):
            raise DegreeMismatchError("one value per cycle type is required")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.n, self.values))

    def __repr__(self) -> str:
        return f"ClassFunction(n={self.n!r}, values={self.values!r})"

    def __call__(self, rho: Partition) -> int:
        return self.values[_index(self.n)[rho]]

    @property
    def degree(self) -> int:
        """Value at the identity class."""
        return self((1,) * self.n)

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        _same_degree(self, other)
        return ClassFunction._of(self.n, tuple(a + b for a, b in zip(self.values, other.values)))

    def scaled(self, c: int) -> "ClassFunction":
        return ClassFunction._of(self.n, tuple(c * v for v in self.values))


def _same_degree(f: ClassFunction, g: ClassFunction) -> None:
    if f.n != g.n:
        raise DegreeMismatchError(f"degrees differ: {f.n} != {g.n}")


@cache
def _monomial_terms(nu: Partition, r: int) -> tuple[tuple[Partition, int], ...]:
    """The monomial step: m_nu p_r is the sum of k m_mu over the part values
    v of nu and v = 0, mu being nu with one part v raised to v + r (v = 0
    appends a new part) and k the number of parts of mu equal to v + r.
    One table for the process, like `tableaux._added`; 2,713 keys for
    n <= 20."""
    terms = []
    for i, v in enumerate((*nu, 0)):
        if i and v == nu[i - 1]:
            continue  # not the first part of this value
        w = v + r
        mu = tuple(sorted((*nu[:i], w, *nu[i + 1:]), reverse=True))
        terms.append((mu, mu.count(w)))
    return tuple(terms)


@lru_cache(maxsize=2)
def _perm_characters(n: int) -> dict[Partition, ClassFunction]:
    """Every permutation character of degree n, keyed by shape in the
    frozen order: psi^lam(rho) is the coefficient of m_lam in p_rho, read
    off the level of rho in `_walk` with the monomial step."""
    shapes = class_types(n)
    table = {lam: [0] * len(shapes) for lam in shapes}
    for j, level in enumerate(_walk(n, _monomial_terms)):
        for nu, c in level.items():
            table[nu][j] = c
    return {lam: ClassFunction._of(n, tuple(table.pop(lam))) for lam in shapes}


def perm_character(lam: Partition) -> ClassFunction:
    """Character of the permutation action on ordered set partitions with
    block sizes lam (the module induced from the trivial character of the
    row stabilizer).

    Its value at rho is the number of ways to split the cycles of rho into
    the rows with prescribed sums: the coefficient of m_lam in the power
    sum p_rho.  Every shape of the degree is expanded in one pass and
    cached with the degree (`_perm_characters`); the degree is checked on
    every call, so a lowered cap holds on a warm table."""
    lam = check_partition(lam, "lam")
    return _perm_characters(check_degree(sum(lam)))[lam]


@cache
def _signs(n: int) -> tuple[int, ...]:
    return tuple(sign_value(rho) for rho in class_types(n))


def sign_twist(f: ClassFunction) -> ClassFunction:
    """Pointwise product with the sign character; an involution."""
    return ClassFunction._of(f.n, tuple(map(mul, _signs(f.n), f.values)))


def ind_sgn_character(lam: Partition) -> ClassFunction:
    """Character of the module induced from the sign character of the
    column stabilizer of lam; equals sign_twist of the row character of
    the conjugate shape."""
    return sign_twist(perm_character(conjugate(check_partition(lam, "lam"))))


def inner(f: ClassFunction, g: ClassFunction) -> Fraction:
    """Class-size-weighted pairing (1/n!) sum |C_rho| f(rho) g(rho)."""
    _same_degree(f, g)
    weighted = map(mul, _class_sizes(f.n), g.values)
    return Fraction(sum(map(mul, f.values, weighted)), factorial(f.n))


@cache
def _slot_widths(n: int) -> tuple[int, int]:
    """Bytes per signed slot at degree n, over the shapes and over the
    classes.  With F = n!, each psi is checked to have |psi(rho)| <= F and
    each chi has unit norm, so |chi(rho)| <= R = isqrt(F).  By Cauchy-
    Schwarz a pairing sum is at most F*F, a multiplicity at most F, and
    what psi loses at a class to the fewer than p irreducibles before it
    at most p*F*R."""
    f, p = factorial(n), len(_enumerate_partitions(n))
    return _slot_width(f * f), _slot_width(p * f * isqrt(f))


def _pairings(f: ClassFunction, lam: Partition, columns, count: int) -> list[int]:
    """n! times the multiplicity in f of each of the first count packed
    irreducibles; f is refused unless |f(rho)| <= n!, as the widths need."""
    if max(map(abs, f.values)) > factorial(f.n):
        raise OrthogonalizationError(f"value out of bound at {lam}")
    total = sum(s * v * q for s, v, q in zip(_class_sizes(f.n), f.values, columns) if v)
    return _unpack(total, count, _slot_widths(f.n)[0])


def _multiplicity(total: int, nfact: int, mu: Partition) -> int:
    m, r = divmod(total, nfact)
    if r:
        raise OrthogonalizationError(f"non-integer multiplicity {Fraction(total, nfact)} of {mu}")
    return m


class MultiplicityTable(NamedTuple):
    """Multiplicities of irreducibles inside the row-induced modules, with
    the irreducible characters found alongside them, keyed by partition in
    the frozen order.  rows[lam] holds M(mu, lam) for each mu up to lam and
    ends in M(lam, lam) = 1; every later mu has M(mu, lam) = 0."""

    n: int
    rows: dict[Partition, tuple[int, ...]]
    characters: dict[Partition, ClassFunction]

    def __call__(self, mu: Partition, lam: Partition) -> int:
        row, i = self.rows[lam], _index(self.n)[mu]
        return row[i] if i < len(row) else 0


def multiplicity_table(n: int) -> MultiplicityTable:
    """M(mu, lam) = pairing of the lam permutation character with the mu
    irreducible, for all pairs of partitions of n, and the irreducibles.

    Walks the permutation characters in the frozen order (a linear
    extension of reverse dominance) and strips the irreducibles found so
    far; the multiplicities stripped are M(mu, lam) for every earlier mu.
    What is left is the lam irreducible, so M(lam, lam) = 1, and psi^lam
    lies in the span of the irreducibles up to lam, so M(mu, lam) = 0 for
    every later mu.  Nonnegative integer multiplicities, unit norm, and
    the branching dimension are enforced; a violation means the processing
    order is broken.  Each call checks n before the cached table is read.
    """
    return _multiplicity_table(check_degree(n))


def _multiplicity_table(n: int) -> MultiplicityTable:
    return _character_layer(n)[0]


@lru_cache(maxsize=2)
def _character_layer(n: int) -> tuple[MultiplicityTable, tuple[int, ...]]:
    """The table of degree n and the packed columns Q_rho it was built from."""
    shapes, nfact, sizes = _enumerate_partitions(n), factorial(n), _class_sizes(n)
    width, class_width = _slot_widths(n)
    chis: dict[Partition, ClassFunction] = {}
    rows: dict[Partition, tuple[int, ...]] = {}
    columns = [0] * len(shapes)  # Q_rho
    packed = []  # each irreducible so far, packed over the classes
    psis = _perm_characters(n)
    for i, lam in enumerate(shapes):
        psi = psis[lam]
        ms = []
        for mu, total in zip(chis, _pairings(psi, lam, columns, i)):
            m = _multiplicity(total, nfact, mu)
            if m < 0:
                raise OrthogonalizationError(f"bad multiplicity at ({mu}, {lam})")
            ms.append(m)
        lost = _unpack(sum(m * x for m, x in zip(ms, packed) if m), len(shapes), class_width)
        reduced = tuple(map(sub, psi.values, lost))
        chi = ClassFunction._of(n, reduced)
        if sum(s * v * v for s, v in zip(sizes, reduced)) != nfact:
            raise OrthogonalizationError(f"non-unit norm at {lam}")
        if chi.degree != _standard_count(lam):
            raise OrthogonalizationError(f"wrong dimension at {lam}")
        chis[lam] = chi
        rows[lam] = (*ms, 1)
        packed.append(_pack(reduced, class_width))
        for k, v in enumerate(reduced):
            if v:
                columns[k] += v << 8 * width * i
    return MultiplicityTable(n, rows, chis), tuple(columns)


multiplicity_table.cache_info = _character_layer.cache_info
multiplicity_table.cache_clear = _character_layer.cache_clear


def irreducible_characters(n: int) -> dict[Partition, ClassFunction]:
    """All irreducible characters, keyed by partition in the frozen order:
    those found by the orthogonalization in `multiplicity_table`."""
    return multiplicity_table(n).characters


def restrict(f: ClassFunction) -> ClassFunction:
    """Restriction to the previous symmetric group, evaluated by extending
    each cycle type of degree n-1 with a fixed point."""
    if f.n == 0:
        raise DegreeMismatchError("cannot restrict degree 0")
    return ClassFunction._of(
        f.n - 1, tuple(f(tau + (1,)) for tau in _enumerate_partitions(f.n - 1)))


def lemma1_check(lam: Partition) -> bool:
    """Restriction of the lam row character decomposes over the covered
    shapes with the removal multiplicities."""
    lam = check_partition(lam, "lam")
    if (n := sum(lam)) < 2:
        raise SizeMismatchError("need degree at least 2")
    below = _perm_characters(check_degree(n) - 1)  # first: see _eq1_sides
    rhs = ClassFunction._of(n - 1, (0,) * len(below))
    for gamma, c in predecessors(lam):
        rhs = rhs + below[gamma].scaled(c)
    return restrict(_perm_characters(n)[lam]) == rhs


def eq1_check(lam: Partition, rho: Partition) -> tuple[int, int]:
    """Both sides of the multiplicity recurrence for (lam, rho).  Each call
    checks the pair first; the eq1 sweep reads the same sides of every pair
    of a degree from `_eq1_sides` and checks none."""
    lam, rho = check_pair(lam, rho)
    return _eq1_sides(sum(lam)).pair(lam, rho)


@lru_cache(maxsize=1)
def _eq1_sides(n: int) -> _BranchingSides:
    """The eq1 sides of degree n, kept for the last degree read."""
    # degree n - 1 is read before n, so that a sweep's next degree drops
    # n - 1 from the two-degree caches, not n
    small = _multiplicity_table(n - 1).rows
    return _BranchingSides(_multiplicity_table(n).rows, small, n)


def conjugate_twist_check(n: int) -> bool:
    """Sign-twisting an irreducible gives the conjugate irreducible."""
    chis = irreducible_characters(n)
    return all(sign_twist(chis[mu]) == chis[conjugate(mu)] for mu in chis)


def theorem1_check(lam: Partition) -> Fraction:
    """Pairing of the two induced characters attached to lam; contract: 1."""
    lam = check_partition(lam, "lam")
    check_degree(sum(lam))
    return _theorem1_pairings(lam)[0]


def theorem1_components(lam: Partition) -> list[tuple[Partition, int, int]]:
    """Irreducibles common to both induced modules of lam, with their
    multiplicities in each; the contract is the single entry (lam, 1, 1)."""
    lam = check_partition(lam, "lam")
    check_degree(sum(lam))
    return _theorem1_pairings(lam)[1]


def _theorem1_pairings(lam: Partition) -> tuple[Fraction, list[tuple[Partition, int, int]]]:
    """Both answers above from the sign-twisted character built once;
    checks nothing (the public functions check lam, the sweep its cap)."""
    n = sum(lam)
    psis, (table, columns) = _perm_characters(n), _character_layer(n)
    phi, row, nfact = sign_twist(psis[conjugate(lam)]), table.rows[lam], factorial(n)
    out = []
    for mu, a, total in zip(table.characters, row, _pairings(phi, lam, columns, len(row))):
        b = _multiplicity(total, nfact, mu) if a else 0
        if b:
            out.append((mu, a, b))
    return inner(psis[lam], phi), out
