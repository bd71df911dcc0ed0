"""Exact linear algebra over arbitrary-precision rationals.

This is the shared engine for the multiplicity system and the form spaces.
Everything is exact: rows keep the int or fractions.Fraction values they
are given, and no floating point appears anywhere.

There is one row format, sparse {column: value} rows, which is what every
producer emits: the 0/1 deviation systems, the derivative matrices and the
stacked generator spans are mostly zeros.  There is one elimination body.
Its forward pass, ``_echelon``, clears each row of denominators and
reduces it against the pivot rows found so far with one integer
row-combination step, ``_clear``, which touches only nonzero entries.
``rank`` is the forward pass alone and makes no Fraction.  ``rref`` adds a
back-substitution with the same step and then divides each pivot row by
its pivot, the only place a Fraction is made here; ``Subspace`` keeps
those sparse pivot rows as its basis.  The output of ``rref`` is
cross-checked against a plain Fraction Gauss-Jordan reduction in the test
suite.  The dense ``RationalMatrix`` is left only for ``kernel`` and
``restricted_trace``, which no library code calls.
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
        return RationalMatrix(
            [[int(i == j) for j in range(n)] for i in range(n)]
        )


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


def _primitive(v: dict[int, int]) -> None:
    """Divide v by its content, the gcd of its entries."""
    g = gcd(*v.values())
    if g != 1:
        for j in v:
            v[j] //= g


def _echelon(rows: Iterable[dict[int, Rational]]) -> dict[int, dict[int, int]]:
    """Forward pass: sparse {column: value} rows, cleared of denominators
    and of zero values, inserted one at a time and reduced against the
    pivot rows kept so far.  Returns the primitive pivot rows keyed by
    their leading (pivot) column; their number is the rank."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        d = lcm(*(x.denominator for x in row.values()))
        v = {j: x.numerator * (d // x.denominator) for j, x in row.items() if x}
        while v:
            c = min(v)
            if c not in pivots:
                _primitive(v)
                pivots[c] = v
                break
            # the pivot row is zero left of c, so v's leading column rises
            _clear(v, c, pivots[c])
    return pivots


def rref(rows: Iterable[dict[int, Rational]]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of sparse {column: value} rows: the nonzero
    reduced rows as sparse Fraction rows with pivot entry 1, keyed by their
    pivot column in ascending order; their number is the rank.

    The forward pass ``_echelon`` runs in integers; the back-substitution
    then clears every pivot row at the pivot columns to its right, in
    descending pivot order and with the same integer step, so each row is
    cleared only by rows that are already reduced.  The final division of
    each pivot row by its pivot is the only Fraction made.  The result does
    not depend on the order of elimination because the RREF is unique.
    """
    pivots = _echelon(rows)
    for c in sorted(pivots, reverse=True):
        v = pivots[c]
        for k in [k for k in v if k != c and k in pivots]:
            _clear(v, k, pivots[k])
        _primitive(v)
    return {c: {j: Fraction(x, v[c]) for j, x in v.items()} for c, v in sorted(pivots.items())}


def rank(rows: Iterable[dict[int, Rational]]) -> int:
    """Rank of the sparse {column: value} rows, from the forward pass alone
    (no Fraction)."""
    return len(_echelon(rows))


def _in_range(row: dict, ambient_dim: int) -> dict:
    """row itself, after checking that its columns lie in 0..ambient_dim-1."""
    if row and (min(row) < 0 or max(row) >= ambient_dim):
        raise DimensionMismatchError(f"a column of {row} is outside Q^{ambient_dim}")
    return row


class Subspace:
    """A subspace of Q^d held as its reduced-row-echelon basis: sparse
    {column: Fraction} rows with pivot entry 1, in ascending pivot order.

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
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(frozenset(row.items()) for row in self.rows)))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def coordinates(self, v: dict[int, Rational]) -> Optional[Vector]:
        """Coefficients of the sparse vector v in the RREF basis, or None if
        v is outside."""
        rest = dict(_in_range(v, self.ambient_dim))
        coords = []
        for p, row in zip(self.pivots, self.rows):
            c = rest.get(p, 0)
            coords.append(c)
            if c:
                for j, x in row.items():
                    rest[j] = rest.get(j, 0) - c * x
        if any(rest.values()):
            return None
        return tuple(coords)


def kernel(a: RationalMatrix) -> Subspace:
    """Exact null space of a: one basis vector per free column f, with 1 at
    f and minus the reduced rows' entries at f on their pivots."""
    reduced = rref([{j: x for j, x in enumerate(row) if x} for row in a.entries])
    basis = []
    for f in range(a.cols):
        if f not in reduced:
            v = {f: 1}
            for p, row in reduced.items():
                if f in row:
                    v[p] = -row[f]
            basis.append(v)
    return Subspace(a.cols, basis)


def restricted_trace(a: RationalMatrix, b: Subspace) -> Rational:
    """Trace of a restricted to an invariant subspace.

    With basis vectors b_i as columns of B, this is the trace of the unique
    C satisfying A B^T = B^T C.  Raises NotInvariantError when some A b_i
    leaves the span, which signals a wrong candidate subspace.
    """
    if a.rows != a.cols or a.cols != b.ambient_dim:
        raise DimensionMismatchError("operator does not act on the ambient space")
    total = 0
    for i, row in enumerate(b.rows):
        image = {k: sum(entries[j] * x for j, x in row.items())
                 for k, entries in enumerate(a.entries)}
        coords = b.coordinates(image)
        if coords is None:
            raise NotInvariantError(f"image of basis vector {i} leaves the subspace")
        total += coords[i]
    return total
