"""Exact linear algebra over the rationals, in Python integers; no floating
point appears anywhere.  This is the shared engine for the multiplicity
system and the form spaces.

There is one row format, sparse {column: value} rows, which is what every
producer emits: the 0/1 deviation systems, the derivative matrices and the
stacked generator spans are mostly zeros.  There is one elimination body.
Its forward pass, ``_echelon``, reduces each row against the pivot rows
found so far with one integer row-combination step, ``_clear``, which
touches only nonzero entries.  A row of ints goes in as it is; a row
holding a ``Fraction`` (a caller's ``Rational`` coefficients) is first
cleared of its denominators.  ``rank`` is the forward pass alone.  ``rref``
adds a back-substitution with the same step and returns primitive integer
rows with positive pivots, as canonical as pivot-1 rows; ``Subspace``
keeps them as its basis.  ``rref`` is cross-checked against a plain
Fraction Gauss-Jordan reduction in the test suite.  The dense
``RationalMatrix`` is left only for ``kernel`` and ``restricted_trace``,
which no library code calls; the trace, read off the pivots, is a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatchError, NotInvariantError

Vector = tuple[Rational, ...]


class RationalMatrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, rows: Sequence[Iterable], cols: Optional[int] = None):
        self.entries: tuple[Vector, ...] = tuple(tuple(r) for r in rows)
        self.rows = len(self.entries)
        if self.rows:
            widths = {len(r) for r in self.entries}
            if len(widths) != 1:
                raise DimensionMismatchError("ragged rows")
            self.cols = widths.pop()
            if cols is not None and cols != self.cols:
                raise DimensionMismatchError("cols does not match row width")
        else:
            if cols is None:
                raise DimensionMismatchError("empty matrix needs explicit cols")
            self.cols = cols

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def _clear(v: dict[int, int], c: int, b: dict[int, int]) -> None:
    """The one row-combination step: v becomes p*v - f*b, with f = v[c]
    and p = b[c] divided by their gcd, which clears column c of v."""
    f, p = v[c], b[c]
    g = gcd(f, p)
    if g != 1:
        f //= g
        p //= g
    if p != 1:
        for j in v:
            v[j] *= p
    for j, y in b.items():
        x = v.get(j, 0) - f * y
        if x:
            v[j] = x
        else:
            del v[j]


def _primitive(v: dict[int, int], c: int) -> None:
    """Divide v by its content, the gcd of its entries, signed as v[c]."""
    if v[c] == 1:
        return  # content 1, pivot positive: the 0/1 rows of Statement 1
    g = gcd(*v.values())
    if v[c] < 0:
        g = -g
    if g != 1:
        for j in v:
            v[j] //= g


_INT = frozenset((int,))


def _integral(row: dict[int, Rational]) -> dict[int, int]:
    """A new copy of row without its zero values, cleared of denominators
    unless it holds only ints (a bool or a Fraction comes out an int); a
    row of nonzero ints is copied in one step."""
    values = row.values()
    if {*map(type, values)} <= _INT:
        return dict(row) if all(values) else {j: x for j, x in row.items() if x}
    d = lcm(*(x.denominator for x in values))
    return {j: x.numerator * (d // x.denominator) for j, x in row.items() if x}


def _echelon(rows: Iterable[dict[int, Rational]]) -> dict[int, dict[int, int]]:
    """Forward pass: sparse {column: value} rows, made `_integral`,
    inserted one at a time and reduced against the pivot rows kept so
    far.  Returns the primitive pivot rows, each with a positive pivot
    entry, keyed by their leading (pivot) column; their number is the
    rank."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        v = _integral(row)
        while v:
            c = min(v)
            if c not in pivots:
                _primitive(v, c)
                pivots[c] = v
                break
            # the pivot row is zero left of c, so v's leading column rises
            _clear(v, c, pivots[c])
    return pivots


def rref(rows: Iterable[dict[int, Rational]]) -> dict[int, dict[int, int]]:
    """Reduced row echelon form of sparse {column: value} rows: the nonzero
    reduced rows as sparse primitive integer rows (entries of gcd 1) with a
    positive pivot entry, keyed by their pivot column in ascending order;
    their number is the rank.  Each row is the pivot-1 row of the rational
    RREF times the least common denominator of its entries, so it is as
    canonical as that row.

    The forward pass ``_echelon`` runs in integers; the back-substitution
    then clears every pivot row at the pivot columns to its right, in
    descending pivot order and with the same integer step, so each row is
    cleared only by rows that are already reduced, and is then made
    primitive again.  The result does not depend on the order of
    elimination because the RREF is unique.
    """
    pivots = _echelon(rows)
    for c in sorted(pivots, reverse=True):
        v = pivots[c]
        for k in [k for k in v if k != c and k in pivots]:
            _clear(v, k, pivots[k])
        _primitive(v, c)
    return dict(sorted(pivots.items()))


def rank(rows: Iterable[dict[int, Rational]]) -> int:
    """Rank of the sparse {column: value} rows, from the forward pass alone."""
    return len(_echelon(rows))


def _in_range(row: dict, ambient_dim: int) -> dict:
    """row itself, after checking that its columns lie in 0..ambient_dim-1."""
    if row and (min(row) < 0 or max(row) >= ambient_dim):
        raise DimensionMismatchError(f"a column of {row} is outside Q^{ambient_dim}")
    return row


class Subspace:
    """A subspace of Q^d held as its reduced-row-echelon basis: the sparse
    primitive integer rows of `rref`, in ascending pivot order.

    The RREF basis is canonical, so two Subspace objects are equal exactly
    when they describe the same subspace.  The spanning rows are sparse
    {column: value} rows with columns in 0..d-1.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim: int, spanning_rows: Iterable):
        rows = []
        for row in spanning_rows:
            if not isinstance(row, dict):
                # a dense row: perfbench/tests/test_perfbench.py builds Subspace(2, [[1, 0]])
                if len(row) != ambient_dim:
                    raise DimensionMismatchError(f"row of length {len(row)} in Q^{ambient_dim}")
                row = {j: x for j, x in enumerate(row) if x}
            rows.append(_in_range(row, ambient_dim))
        reduced = rref(rows)
        self.ambient_dim = ambient_dim
        self.rows = tuple(reduced.values())
        self.pivots = tuple(reduced)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and (
            (self.ambient_dim, self.rows) == (other.ambient_dim, other.rows))

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(frozenset(row.items()) for row in self.rows)))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def __contains__(self, v: dict[int, Rational]) -> bool:
        """Whether the sparse vector v lies in the subspace: clearing it at
        each pivot with the basis row there leaves nothing, as every basis
        row is zero at the other pivots."""
        v = _integral(_in_range(v, self.ambient_dim))
        for p, row in zip(self.pivots, self.rows):
            if p in v:
                _clear(v, p, row)
        return not v


def kernel(a: RationalMatrix) -> Subspace:
    """Exact null space of a: one integer basis vector per free column f,
    with D, the lcm of the pivot entries, at f and -row[f] * D / row[p] on
    the pivot p of each reduced row."""
    reduced = rref([{j: x for j, x in enumerate(row) if x} for row in a.entries])
    d = lcm(*(row[p] for p, row in reduced.items()))
    return Subspace(a.cols, [
        {f: d, **{p: -row[f] * (d // row[p]) for p, row in reduced.items() if f in row}}
        for f in range(a.cols) if f not in reduced])


def restricted_trace(a: RationalMatrix, b: Subspace) -> Rational:
    """Trace of a restricted to an invariant subspace.

    With basis vectors b_i as columns of B, this is the trace of the unique
    C satisfying A B^T = B^T C, read off the pivots: the coefficient of b_i
    in A b_i is (A b_i)[p_i] / b_i[p_i], a Fraction.  Raises
    NotInvariantError when some A b_i leaves the span, which signals a
    wrong candidate subspace.
    """
    if a.rows != a.cols or a.cols != b.ambient_dim:
        raise DimensionMismatchError("operator does not act on the ambient space")
    total = 0
    for i, (p, row) in enumerate(zip(b.pivots, b.rows)):
        image = {k: sum(entries[j] * x for j, x in row.items())
                 for k, entries in enumerate(a.entries)}
        if image not in b:
            raise NotInvariantError(f"image of basis vector {i} leaves the subspace")
        # the coefficient of b_i in the image, as in forms.restricted_character
        total += Fraction(image[p], row[p])
    return total
