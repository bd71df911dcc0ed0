"""Exact class functions on symmetric groups.

Values are Python integers indexed by cycle type, one value per partition
of the degree in the frozen enumeration order.  The permutation character
of a row-stabilizer subgroup at a class rho is the coefficient of m_lam in
the power sum p_rho.  All of one degree come from one depth-first pass
over the cycle types, which carries each p_sigma of a common tail sigma
in the monomial basis and multiplies it by one power sum per step; the
table is cached per degree and `perm_character` looks a shape up in it.
Irreducible characters are recovered by orthogonalizing the permutation
characters along the dominance order, which keeps everything inside exact
arithmetic and leaves Kostka numbers (counted independently by the
horizontal-strip recursion in :mod:`younglab.tableaux`) available as a
cross-check rather than an ingredient.

All pairings are plain products without conjugation: every class function
built here is integer-valued.  A multiplicity weights the reducible side by
the class sizes once, on the classes where it is nonzero, and pairs it with
an irreducible in one integer dot product and one exact division by n!.
The multiplicities the orthogonalization strips are the multiplicity table,
one triangular row per shape; each must be a nonnegative integer.  `inner`
returns the same pairing as a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import compress
from math import factorial
from typing import Callable, NamedTuple
from operator import mul

from .errors import DegreeMismatchError, OrthogonalizationError, SizeMismatchError
from .partitions import (
    Partition,
    _require_partition,
    conjugate,
    enumerate_partitions,
    predecessors,
    standard_count,
    successors,
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


@cache
def _type_index(n: int) -> dict[Partition, int]:
    return {rho: i for i, rho in enumerate(class_types(n))}


def class_size(rho: Partition) -> int:
    """Number of permutations with cycle type rho: n!/z_rho."""
    n = sum(rho)
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
        values = tuple(values)
        if len(values) != len(class_types(n)):
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
        return self.values[_type_index(self.n)[rho]]

    @property
    def degree(self) -> int:
        """Value at the identity class."""
        return self((1,) * self.n) if self.n else 1

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        _same_degree(self, other)
        return ClassFunction(self.n, tuple(a + b for a, b in zip(self.values, other.values)))

    def scaled(self, c: int) -> "ClassFunction":
        return ClassFunction(self.n, tuple(c * v for v in self.values))


def _same_degree(f: ClassFunction, g: ClassFunction) -> None:
    if f.n != g.n:
        raise DegreeMismatchError(f"degrees differ: {f.n} != {g.n}")


@cache
def _perm_characters(n: int) -> dict[Partition, ClassFunction]:
    """Every permutation character of degree n, keyed by shape in the
    frozen order: psi^lam(rho) is the coefficient of m_lam in p_rho.

    Walks the suffixes sigma of the cycle types depth-first from the empty
    one, prepending a part r >= sigma[0] at each step, and carries p_sigma
    in the monomial basis as {nu: coefficient}.  Multiplying m_nu by p_r
    adds r to one part value v of nu (v = 0 appends a new part); the new
    term's coefficient is that of m_nu times the number of parts of the
    new partition equal to v + r.  At a full suffix the dict's items are
    the column rho of the table.  Only one dict per level is alive.
    """
    shapes = class_types(n)
    index = _type_index(n)
    table = {lam: [0] * len(shapes) for lam in shapes}

    def expand(sigma: Partition, size: int, poly: dict[Partition, int]) -> None:
        left = n - size
        if not left:
            column = index[sigma]
            for nu, c in poly.items():
                table[nu][column] = c
            return
        low = sigma[0] if sigma else 1
        # the rest after r must be empty or hold one more part >= r
        for r in (*range(low, left // 2 + 1), left):
            grown: dict[Partition, int] = {}
            for nu, c in poly.items():
                for i, v in enumerate((*nu, 0)):
                    if i and v == nu[i - 1]:
                        continue  # not the first part of this value
                    w = v + r
                    new = tuple(sorted((*nu[:i], w, *nu[i + 1:]), reverse=True))
                    grown[new] = grown.get(new, 0) + c * new.count(w)
            expand((r, *sigma), size + r, grown)

    expand((), 0, {(): 1})
    return {lam: ClassFunction(n, tuple(table.pop(lam))) for lam in shapes}


def perm_character(lam: Partition) -> ClassFunction:
    """Character of the permutation action on ordered set partitions with
    block sizes lam (the module induced from the trivial character of the
    row stabilizer).

    Its value at rho is the number of ways to split the cycles of rho into
    the rows with prescribed sums: the coefficient of m_lam in the power
    sum p_rho.  Every shape of the degree is expanded in one pass and
    cached per degree (`_perm_characters`)."""
    _require_partition("lam", lam)
    return _perm_characters(sum(lam))[lam]


@cache
def _signs(n: int) -> tuple[int, ...]:
    return tuple(sign_value(rho) for rho in class_types(n))


def sign_twist(f: ClassFunction) -> ClassFunction:
    """Pointwise product with the sign character; an involution."""
    return ClassFunction(f.n, tuple(map(mul, _signs(f.n), f.values)))


@cache
def ind_sgn_character(lam: Partition) -> ClassFunction:
    """Character of the module induced from the sign character of the
    column stabilizer of lam; equals sign_twist of the row character of
    the conjugate shape."""
    _require_partition("lam", lam)
    return sign_twist(perm_character(conjugate(lam)))


def inner(f: ClassFunction, g: ClassFunction) -> Fraction:
    """Class-size-weighted pairing (1/n!) sum |C_rho| f(rho) g(rho)."""
    _same_degree(f, g)
    weighted = map(mul, _class_sizes(f.n), g.values)
    return Fraction(sum(map(mul, f.values, weighted)), factorial(f.n))


def _multiplicities(f: ClassFunction) -> Callable[[Partition, ClassFunction], int]:
    """The multiplicity in f of the irreducible chi of mu, as a function of
    mu and chi; it must be an integer.  f is weighted by the class sizes
    once, on the classes where it is nonzero, and only those classes are
    multiplied: a permutation character vanishes on most classes."""
    values = f.values
    weighted = [size * v for size, v in zip(_class_sizes(f.n), values) if v]
    nfact = factorial(f.n)

    def multiplicity(mu: Partition, chi: ClassFunction) -> int:
        total = sum(map(mul, weighted, compress(chi.values, values)))
        m, r = divmod(total, nfact)
        if r:
            raise OrthogonalizationError(
                f"non-integer multiplicity {Fraction(total, nfact)} of {mu}")
        return m

    return multiplicity


def theorem1_check(lam: Partition) -> Fraction:
    """Pairing of the two induced characters attached to lam; contract: 1."""
    _require_partition("lam", lam)
    return inner(perm_character(lam), ind_sgn_character(lam))


class MultiplicityTable(NamedTuple):
    """Multiplicities of irreducibles inside the row-induced modules, with
    the irreducible characters found alongside them, keyed by partition in
    the frozen order.  rows[lam] holds M(mu, lam) for each mu up to lam and
    ends in M(lam, lam) = 1; every later mu has M(mu, lam) = 0."""

    n: int
    rows: dict[Partition, tuple[int, ...]]
    characters: dict[Partition, ClassFunction]

    def __call__(self, mu: Partition, lam: Partition) -> int:
        row, i = self.rows[lam], _type_index(self.n)[mu]
        return row[i] if i < len(row) else 0


@cache
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
    order is broken.
    """
    shapes = enumerate_partitions(n)  # rejects a negative n before factorial
    nfact = factorial(n)
    sizes = _class_sizes(n)
    chis: dict[Partition, ClassFunction] = {}
    rows: dict[Partition, tuple[int, ...]] = {}
    columns: list[list[int]] = [[] for _ in sizes]  # irreducibles so far, by class
    for lam in shapes:
        psi = perm_character(lam)
        multiplicity = _multiplicities(psi)
        ms = []
        for mu, chi in chis.items():
            m = multiplicity(mu, chi)
            if m < 0:
                raise OrthogonalizationError(f"bad multiplicity at ({mu}, {lam})")
            ms.append(m)
        reduced = tuple(v - sum(map(mul, ms, col)) for v, col in zip(psi.values, columns))
        chi = ClassFunction(n, reduced)
        if sum(s * v * v for s, v in zip(sizes, reduced)) != nfact:
            raise OrthogonalizationError(f"non-unit norm at {lam}")
        if chi.degree != standard_count(lam):
            raise OrthogonalizationError(f"wrong dimension at {lam}")
        chis[lam] = chi
        rows[lam] = (*ms, 1)
        for col, v in zip(columns, reduced):
            col.append(v)
    return MultiplicityTable(n, rows, chis)


def irreducible_characters(n: int) -> dict[Partition, ClassFunction]:
    """All irreducible characters, keyed by partition in the frozen order:
    those found by the orthogonalization in `multiplicity_table`."""
    return multiplicity_table(n).characters


def restrict(f: ClassFunction) -> ClassFunction:
    """Restriction to the previous symmetric group, evaluated by extending
    each cycle type of degree n-1 with a fixed point."""
    if f.n == 0:
        raise DegreeMismatchError("cannot restrict degree 0")
    values = []
    for tau in class_types(f.n - 1):
        extended = tuple(sorted(tau + (1,), reverse=True))
        values.append(f(extended))
    return ClassFunction(f.n - 1, tuple(values))


def lemma1_check(lam: Partition) -> bool:
    """Restriction of the lam row character decomposes over the covered
    shapes with the removal multiplicities."""
    _require_partition("lam", lam)
    if sum(lam) < 2:
        raise SizeMismatchError("need degree at least 2")
    lhs = restrict(perm_character(lam))
    n1 = lhs.n
    rhs = ClassFunction(n1, (0,) * len(class_types(n1)))
    for gamma, c in predecessors(lam):
        rhs = rhs + perm_character(gamma).scaled(c)
    return lhs == rhs


def eq1_check(lam: Partition, rho: Partition) -> tuple[int, int]:
    """Both sides of the multiplicity recurrence for (lam, rho)."""
    _require_partition("lam", lam)
    _require_partition("rho", rho)
    n = sum(lam)
    if sum(rho) != n - 1:
        raise SizeMismatchError(f"need |{lam}| = |{rho}| + 1")
    big = multiplicity_table(n)
    small = multiplicity_table(n - 1)
    left = sum(big(mu, lam) for mu in successors(rho))
    right = sum(c * small(rho, gamma) for gamma, c in predecessors(lam))
    return left, right


def conjugate_twist_check(n: int) -> bool:
    """Sign-twisting an irreducible gives the conjugate irreducible."""
    chis = irreducible_characters(n)
    return all(sign_twist(chis[mu]) == chis[conjugate(mu)] for mu in chis)


def theorem1_components(lam: Partition) -> list[tuple[Partition, int, int]]:
    """Irreducibles common to both induced modules of lam, with their
    multiplicities in each; the contract is the single entry (lam, 1, 1)."""
    _require_partition("lam", lam)
    table = multiplicity_table(sum(lam))
    multiplicity = _multiplicities(ind_sgn_character(lam))
    out = []
    for (mu, chi), a in zip(table.characters.items(), table.rows[lam]):
        b = multiplicity(mu, chi) if a else 0
        if b:
            out.append((mu, a, b))
    return out
