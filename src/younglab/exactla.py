"""Dense exact linear algebra over arbitrary-precision rationals.

This is the shared engine for the multiplicity system and the form spaces.
Everything is exact: matrices keep the int or fractions.Fraction entries
they are given, pivots are the first nonzero entry of each column, and no
floating point appears anywhere.

The one elimination routine, `rref`, works on integers: it clears each row
of denominators and runs fraction-free Gauss-Jordan elimination (Bareiss
1968), turning the pivot rows into fractions only at the end; that final
division is the only place a Fraction is made here.  Its output is
cross-checked against a plain Fraction Gauss-Jordan reduction in the test
suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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


def rref(a: RationalMatrix) -> tuple[RationalMatrix, int, list[int]]:
    """Reduced row echelon form, rank, and pivot columns.

    Deterministic: the pivot of each step is the first row with a nonzero
    entry in the current column, and pivots are fully reduced above and
    below.  The elimination is fraction-free: with p the new pivot and prev
    the one before it, every other row i becomes (p*m_i - m_i[c]*m_r) // prev,
    rows with a zero in column c included, and each of those divisions is
    exact (Sylvester's identity: every entry is a minor of the integer
    matrix).  Pivot rows become fractions only in the final division by
    their pivots.
    """
    m: list[list[int]] = []
    for row in a.entries:
        d = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (d // x.denominator) for x in row])
    nrows, ncols = a.rows, a.cols
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        src = next((i for i in range(r, nrows) if m[i][c]), None)
        if src is None:
            continue
        m[r], m[src] = m[src], m[r]
        mr = m[r]
        p = mr[c]
        for i in range(nrows):
            f = m[i][c]
            # f == 0 and p == prev would leave row i unchanged
            if i != r and (f or p != prev):
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], mr)]
        prev = p
        pivots.append(c)
        r += 1
    reduced = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    return RationalMatrix(reduced + m[r:], cols=ncols), r, pivots


def rank(a: RationalMatrix) -> int:
    return rref(a)[1]


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
