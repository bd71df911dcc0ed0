"""Exact linear algebra over arbitrary-precision rationals.

This is the shared engine for the multiplicity system and the form spaces.
Everything is exact: matrices keep the int or fractions.Fraction entries
they are given, and no floating point appears anywhere.

There is one elimination body.  Its forward pass, ``_echelon``, takes
sparse {column: value} rows, which is what every producer emits: the 0/1
deviation systems, the derivative matrices and the stacked generator spans
are mostly zeros.  It clears each row of denominators and reduces it
against the pivot rows found so far with one integer row-combination step,
``_clear``, which touches only nonzero entries.  ``rank`` is the forward
pass alone and makes no Fraction.  ``rref`` takes a dense
``RationalMatrix`` (so do ``kernel`` and ``Subspace``, through it), scans
it to sparse rows once, adds a back-substitution with the same step and
then divides each pivot row by its pivot, the only place a Fraction is
made here.  Its output is cross-checked against a plain Fraction
Gauss-Jordan reduction in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.entries
        )
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def matvec(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatchError(f"vector length {len(v)} != cols {self.cols}")
        out = [0] * self.rows
        for j, x in enumerate(v):
            if x:
                for i, r in enumerate(self.entries):
                    if r[j]:
                        out[i] += r[j] * x
        return tuple(out)


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


def rref(a: RationalMatrix) -> tuple[RationalMatrix, int, list[int]]:
    """Reduced row echelon form, rank, and pivot columns.

    The forward pass ``_echelon`` runs in integers over sparse rows; the
    back-substitution then clears every pivot row at the pivot columns to
    its right, in descending pivot order and with the same integer step, so
    each row is cleared only by rows that are already reduced.  The final
    division of each pivot row by its pivot is the only Fraction made.
    The result does not depend on the order of elimination because the
    RREF of a matrix is unique: pivot rows come first, by pivot column,
    then the zero rows.
    """
    columns = range(a.cols)
    pivots = _echelon({j: row[j] for j in compress(columns, row)} for row in a.entries)
    order = sorted(pivots)
    for c in reversed(order):
        v = pivots[c]
        for k in [k for k in v if k != c and k in pivots]:
            _clear(v, k, pivots[k])
        _primitive(v)
    zero = Fraction(0)
    reduced = []
    for c in order:
        v = pivots[c]
        p = v[c]
        row = [zero] * a.cols
        for j, x in v.items():
            row[j] = Fraction(x, p)
        reduced.append(row)
    zeros = [[0] * a.cols] * (a.rows - len(order))
    return RationalMatrix(reduced + zeros, cols=a.cols), len(order), order


def rank(rows: Iterable[dict[int, Rational]]) -> int:
    """Rank of the sparse {column: value} rows, from the forward pass alone
    (no Fraction)."""
    return len(_echelon(rows))


class Subspace:
    """A subspace of Q^d held as a reduced-row-echelon basis.

    The RREF basis is canonical, so two Subspace objects are equal exactly
    when they describe the same subspace.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, spanning_rows: Sequence[Iterable]):
        mat = RationalMatrix(list(spanning_rows), cols=ambient_dim)
        red, rk, pivots = rref(mat)
        self.ambient_dim = ambient_dim
        self.basis = RationalMatrix(red.entries[:rk], cols=ambient_dim)
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def coordinates(self, v: Sequence) -> Optional[Vector]:
        """Coefficients of v in the RREF basis, or None if v is outside."""
        vv = list(v)
        if len(vv) != self.ambient_dim:
            raise DimensionMismatchError("vector has wrong length")
        coords = []
        for i, p in enumerate(self.pivots):
            c = vv[p]
            coords.append(c)
            if c:
                for j, x in enumerate(self.basis.entries[i]):
                    if x:
                        vv[j] -= c * x
        if any(vv):
            return None
        return tuple(coords)


def kernel(a: RationalMatrix) -> Subspace:
    """Exact null space of a."""
    red, _, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(a.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * a.cols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = -red.entries[i][f]
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
    for i in range(b.dim):
        image = a.matvec(b.basis.entries[i])
        coords = b.coordinates(image)
        if coords is None:
            raise NotInvariantError(f"image of basis vector {i} leaves the subspace")
        total += coords[i]
    return total
