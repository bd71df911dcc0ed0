"""Polylinear-form realizations of the row-induced modules and their
irreducible pieces.

The space attached to a shape lam is spanned by the monomials whose
exponent multiset puts i-1 on each variable assigned to row i; the
symmetric group acts by substituting variables.  Specht polynomials
(column Vandermonde products) live inside that space and span the
shift-invariant part, which is the kernel of the total derivative
D = sum of d/dx_i: over the rationals a form is invariant under adding a
common constant to all variables exactly when D kills it.

Coefficients are kept as given: every form built here is integral, so
they are Python ints.  Every rank and equality is still a statement over Q,
and the only fractions are the pivot rows of an RREF basis.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, factorial
from numbers import Rational
from typing import NamedTuple

from .characters import ClassFunction, class_types, irreducible_characters, perm_character
from .errors import (
    InvalidFillingError, LimitError, NotInvariantError, SelfCheckError, SizeMismatchError,
)
from .exactla import Subspace, rank
# not used here: perfbench/tests/test_perfbench.py reaches younglab.forms.restricted_trace
from .exactla import restricted_trace  # noqa: F401
from .partitions import Partition, _require_partition, standard_count
from .tableaux import Tableau, enumerate_standard

Monomial = tuple[int, ...]
Permutation = tuple[int, ...]  # 0-based image tuple: p[i] is the image of i

STATEMENT2_MAX_N = 6
THEOREM5_MAX_N = 6
TWO_ROW_MAX_N = 10


def monomial_sort_key(m: Monomial):
    """Frozen order: higher total degree first, then descending lex."""
    return (-sum(m), tuple(-x for x in m))


class Form:
    """Sparse multivariate polynomial with exact rational coefficients,
    kept as given (ints for every form the library builds); a float or
    other non-Rational coefficient raises TypeError."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean: dict[Monomial, Rational] = {}
        for m, c in (terms or {}).items():
            if c:
                if not isinstance(c, Rational):
                    raise TypeError(f"coefficient {c!r} is not an exact rational")
                if len(m) != n:
                    raise SizeMismatchError(f"monomial {m} is not in {n} variables")
                clean[tuple(m)] = c
        self.terms = clean

    @staticmethod
    def zero(n: int) -> "Form":
        return Form(n)

    @staticmethod
    def constant(n: int, c) -> "Form":
        return Form(n, {(0,) * n: c})

    @staticmethod
    def variable(n: int, i: int) -> "Form":
        """x_i, 1-based."""
        e = [0] * n
        e[i - 1] = 1
        return Form(n, {tuple(e): 1})

    @staticmethod
    def monomial(n: int, m: Monomial, c=1) -> "Form":
        return Form(n, {tuple(m): c})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Form) and self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: "Form") -> "Form":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Form(self.n, out)

    def __neg__(self) -> "Form":
        return Form(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Form):
            if other.n != self.n:
                raise SizeMismatchError("forms live in different variable counts")
            out: dict[Monomial, Rational] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(m1, m2))
                    out[key] = out.get(key, 0) + c1 * c2
            return Form(self.n, out)
        return Form(self.n, {m: c * other for m, c in self.terms.items()})

    __rmul__ = __mul__

    def derivative_sum(self) -> "Form":
        """Total derivative: the sum of all partial derivatives."""
        out: dict[Monomial, Rational] = {}
        for m, c in self.terms.items():
            for i, e in enumerate(m):
                if e:
                    key = m[:i] + (e - 1,) + m[i + 1:]
                    out[key] = out.get(key, 0) + c * e
        return Form(self.n, out)

    def __repr__(self) -> str:
        return f"Form({format_form(self)})"


def _from_cycle_type(rho: Partition) -> Permutation:
    """Representative of the class rho: consecutive cycles
    (1..r1)(r1+1..r1+r2)..."""
    n = sum(rho)
    p = list(range(n))
    start = 0
    for r in rho:
        for k in range(r):
            p[start + k] = start + (k + 1) % r
        start += r
    return tuple(p)


def _substitute(m: Monomial, sigma: Permutation) -> Monomial:
    """The monomial m after x_i -> x_{sigma(i)}."""
    img = [0] * len(sigma)
    for i, e in enumerate(m):
        img[sigma[i]] = e
    return tuple(img)


def format_form(f: Form) -> str:
    """Deterministic text rendering, terms in the frozen monomial order."""
    if not f.terms:
        return "0"
    chunks = []
    for m in sorted(f.terms, key=monomial_sort_key):
        c = f.terms[m]
        vars_part = "*".join(
            f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
            for i, e in enumerate(m) if e
        ) or "1"
        if not chunks:
            sign = "-" if c < 0 else ""
        else:
            sign = " - " if c < 0 else " + "
        mag = abs(c)
        if vars_part == "1":
            chunks.append(f"{sign}{mag}")
        elif mag == 1:
            chunks.append(f"{sign}{vars_part}")
        else:
            chunks.append(f"{sign}{mag} * {vars_part}")
    return "".join(chunks)


def _arrangements(items: list[int]) -> set[tuple[int, ...]]:
    """Distinct orderings of a multiset, inserting one item at a time."""
    out = {()}
    for x in items:
        out = {a[:i] + (x,) + a[i:] for a in out for i in range(len(a) + 1)}
    return out


def x_monomials(lam: Partition, n: int) -> list[Monomial]:
    """Monomials with exponent i-1 on each variable assigned to row i.

    There are n!/prod(lam_i!) of them: equal rows carry different
    exponents, so all assignments stay distinct.  Returned in the frozen
    monomial order.  Raises LimitError for n > STATEMENT2_MAX_N before any
    other check.
    """
    if n > STATEMENT2_MAX_N:
        raise LimitError(f"n={n} exceeds the supported {STATEMENT2_MAX_N}")
    _require_partition("lam", lam)
    if sum(lam) != n:
        raise SizeMismatchError(f"|{lam}| != {n}")
    exponents: list[int] = []
    for i, part in enumerate(lam):
        exponents.extend([i] * part)
    monos = _arrangements(exponents)
    expected = factorial(n)
    for part in lam:
        expected //= factorial(part)
    if len(monos) != expected:
        raise SelfCheckError(f"{len(monos)} monomials for {lam}, expected {expected}")
    return sorted(monos, key=monomial_sort_key)


def monomial_action_character(monomials: list[Monomial], n: int) -> ClassFunction:
    """Character of the substitution action on a set of monomials (the
    count of fixed monomials, one representative per cycle type)."""
    values = []
    for rho in class_types(n):
        sigma = _from_cycle_type(rho)
        values.append(sum(_substitute(m, sigma) == m for m in monomials))
    return ClassFunction(n, tuple(values))


def statement2_check(lam: Partition, n: int) -> bool:
    """The substitution action on the lam monomials has the same character
    as the row-induced module: the two are equivalent permutation modules."""
    monos = x_monomials(lam, n)
    return monomial_action_character(monos, n) == perm_character(lam)


class FormSpace(NamedTuple):
    """A subspace of the span of an explicit ordered monomial basis."""

    ambient: tuple[Monomial, ...]
    subspace: Subspace

    @property
    def dim(self) -> int:
        return self.subspace.dim


def form_to_vector(f: Form, index: dict[Monomial, int]) -> dict[int, Rational]:
    """The coefficients of f as a sparse {column: value} row over the
    ambient basis whose monomial positions `index` gives."""
    try:
        return {index[m]: c for m, c in f.terms.items()}
    except KeyError as e:
        raise SizeMismatchError(f"term {e.args[0]} outside the ambient basis") from None


def span_of_forms(forms: list[Form], ambient: list[Monomial]) -> FormSpace:
    index = {m: i for i, m in enumerate(ambient)}
    rows = [form_to_vector(f, index) for f in forms]
    return FormSpace(tuple(ambient), Subspace(len(ambient), rows))


def _generators(n: int) -> tuple[Permutation, ...]:
    """(1 2) and (1 2 ... n), which generate S_n; S_1 needs none."""
    if n < 2:
        return ()
    return (_from_cycle_type((2,) + (1,) * (n - 2)), _from_cycle_type((n,)))


def restricted_character(space: FormSpace, n: int) -> ClassFunction:
    """Character of the substitution action restricted to the subspace;
    raises NotInvariantError if the subspace is not actually invariant.

    sigma sends a vector v of the ambient span to the vector whose entry
    at index(sigma . m_j) is v[j], so the image of a sparse row moves each
    entry j to one forward index image per permutation.  Invariance is one
    rank: the sparse rows of the RREF basis b_1..b_d stacked with their
    images under (1 2) and (1 2 ... n), which generate S_n, have rank d
    exactly when the span is invariant under both, hence under all of
    S_n.  The traces are then read off the pivots p_1..p_d: a vector in
    the span has coordinates v[p_1..p_d], so the trace of sigma^-1 is
    sum_i b_i[index(sigma . m_{p_i})], O(d) per class.
    """
    ambient = space.ambient
    sub = space.subspace
    index = {m: i for i, m in enumerate(ambient)}
    basis = sub.rows
    rows = list(basis)
    for g in _generators(n):
        image = [index[_substitute(m, g)] for m in ambient]
        rows += [{image[j]: x for j, x in row.items()} for row in basis]
    if rank(rows) != sub.dim:
        raise NotInvariantError(
            f"the span of dimension {sub.dim} is not invariant under S_{n}")
    values = []
    for rho in class_types(n):
        # the trace of sigma^-1 is sigma's: they are conjugate and the span is invariant
        sigma = _from_cycle_type(rho)
        trace = sum(
            (row.get(index[_substitute(ambient[p], sigma)], 0)
             for row, p in zip(basis, sub.pivots)),
            0,
        )
        if trace.denominator != 1:
            raise SelfCheckError(f"trace {trace} of class {rho} is not an integer")
        values.append(int(trace))
    return ClassFunction(n, tuple(values))


def specht_poly(t: Tableau, n: int) -> Form:
    """Product over columns of the Vandermonde determinant in the column's
    variables, expanded exactly.  The rows must be nonempty and weakly
    shorter going down, so the first row counts the columns."""
    if not all(t) or any(len(b) > len(a) for a, b in zip(t, t[1:])):
        raise InvalidFillingError("rows must be nonempty and weakly shorter going down")
    seen: set[int] = set()
    for row in t:
        for x in row:
            if not (1 <= x <= n) or x in seen:
                raise InvalidFillingError(f"entries must be distinct in 1..{n}")
            seen.add(x)
    result = Form.constant(n, 1)
    ncols = len(t[0]) if t else 0
    for j in range(ncols):
        column = [row[j] for row in t if j < len(row)]
        for a in range(len(column)):
            for b in range(a + 1, len(column)):
                result = result * (
                    Form.variable(n, column[a]) - Form.variable(n, column[b])
                )
    return result


def specht_module(lam: Partition, n: int) -> FormSpace:
    """Span of the Specht polynomials of the standard tableaux of lam,
    inside the ambient monomial basis of the shape (n <= STATEMENT2_MAX_N,
    checked first by `x_monomials`)."""
    ambient = x_monomials(lam, n)
    forms = [specht_poly(t, n) for t in enumerate_standard(lam)]
    return span_of_forms(forms, ambient)


def _derivative_matrix(ambient: list[Monomial], n: int) -> list[dict[int, int]]:
    """Matrix of the total derivative from the ambient span to the span of
    the image monomials, as sparse {column: value} rows, one per image in
    the order the images first appear (no rows when there are none)."""
    rows: dict[Monomial, dict[int, int]] = {}
    for j, m in enumerate(ambient):
        for key, c in Form.monomial(n, m).derivative_sum().terms.items():
            rows.setdefault(key, {})[j] = c
    return list(rows.values())


def d_kernel_dim(ambient: list[Monomial], n: int) -> int:
    """Dimension of the shift-invariant part of the ambient span."""
    return len(ambient) - rank(_derivative_matrix(ambient, n))


def theorem5_check(lam: Partition, n: int) -> dict:
    """Verify the Specht-module facts for one shape of degree n, at most
    THEOREM5_MAX_N.

    (a) the standard Specht polynomials are independent, of rank equal to
        the standard-tableau count;
    (b) they are all killed by the total derivative and their span has the
        dimension of its kernel inside the shape's span, so the span is
        exactly the shift-invariant part;
    (c) the restricted action has the irreducible character of the shape.
    """
    if n > THEOREM5_MAX_N:
        raise LimitError(f"n={n} exceeds the supported {THEOREM5_MAX_N}")
    if sum(lam) != n:
        raise SizeMismatchError(f"|{lam}| != {n}")
    ambient = x_monomials(lam, n)
    tableaux = enumerate_standard(lam)
    polys = [specht_poly(t, n) for t in tableaux]
    space = span_of_forms(polys, ambient)
    expected_dim = standard_count(lam)

    annihilated = all(not p.derivative_sum() for p in polys)
    kernel_dim = d_kernel_dim(ambient, n)
    character = restricted_character(space, n)
    chi = irreducible_characters(n)[lam]
    return {
        "lam": lam,
        "rank": space.dim,
        "independent": space.dim == len(polys) == expected_dim,
        "d_annihilated": annihilated,
        "d_kernel_dim": kernel_dim,
        "kernel_matches": annihilated and space.dim == kernel_dim,
        "character_matches": character == chi,
    }


def elementary_symmetric(n: int, variables: list[int], p: int) -> Form:
    """Sum of all squarefree degree-p products of the given variables
    (1-based indices)."""
    if p == 0:
        return Form.constant(n, 1)
    out: dict[Monomial, int] = {}
    for combo in combinations(sorted(variables), p):
        e = [0] * n
        for i in combo:
            e[i - 1] = 1
        out[tuple(e)] = 1
    return Form(n, out)


def squarefree_monomials(n: int, k: int) -> list[Monomial]:
    """All degree-k squarefree monomials in n variables, frozen order."""
    monos = []
    for combo in combinations(range(n), k):
        e = [0] * n
        for i in combo:
            e[i] = 1
        monos.append(tuple(e))
    return sorted(monos, key=monomial_sort_key)


def difference_product_generators(n: int, l: int, k: int) -> list[Form]:
    """Basis of the l-th component of the squarefree degree-k space: for
    each standard tableau t of shape (n-l, l), the Specht polynomial of t
    times e_{k-l} of the rest of its first row.

    The component is spanned by the pairing products, each sigma.g up to
    sign for one standard product g, so it is the span of g's S_n-orbit.
    The standard span holds g, and `restricted_character` raises
    NotInvariantError unless it is S_n-invariant; so a report of
    `two_row_decomposition` means that span is the whole component.
    """
    return [
        specht_poly(t, n) * elementary_symmetric(n, list(t[0][l:]), k - l)
        for t in enumerate_standard(two_row_partition(n, l))
    ]


def two_row_partition(n: int, l: int) -> Partition:
    return (n - l, l) if l else (n,)


def _independent(spaces: list[Subspace]) -> bool:
    """Whether the sum of subspaces is direct: as
    dim(A + B) = dim A + dim B - dim(A meet B), exactly when their
    dimensions add up to the rank of their stacked RREF bases."""
    rows = [row for space in spaces for row in space.rows]
    return rank(rows) == sum(space.dim for space in spaces)


def two_row_decomposition(n: int, k: int) -> dict:
    """Decompose the squarefree degree-k space into its l-components.

    Component l is spanned by `difference_product_generators`; once that
    span is invariant it holds the S_n-orbit of a pairing product, so it is
    the whole component.  Checks: component dimensions equal the two-row standard-tableau
    counts; the dimensions add up to C(n, k) and to the rank of the
    stacked bases, so the components are independent and fill the whole
    space (when they do not, each pair is tested for independence the same
    way); each carries the matching irreducible character (multiplicity
    one); and for even n with k = n/2 the total derivative kills every
    top generator and the top component has the dimension of its kernel,
    so it is exactly the shift-invariant part.
    """
    if n > TWO_ROW_MAX_N:
        raise LimitError(f"n={n} exceeds the supported {TWO_ROW_MAX_N}")
    if n < 1:
        raise SizeMismatchError(f"need n >= 1, got n={n}")
    if not 0 <= k <= n // 2:
        raise SizeMismatchError(f"need 0 <= k <= n/2, got k={k}, n={n}")
    ambient = squarefree_monomials(n, k)
    chis = irreducible_characters(n)
    components: list[FormSpace] = []
    dims_ok = True
    characters_ok = True
    for l in range(k + 1):
        generators = difference_product_generators(n, l, k)
        space = span_of_forms(generators, ambient)
        components.append(space)
        if space.dim != standard_count(two_row_partition(n, l)):
            dims_ok = False
        if restricted_character(space, n) != chis[two_row_partition(n, l)]:
            characters_ok = False

    direct_sum = (
        sum(space.dim for space in components) == comb(n, k)
        and _independent([space.subspace for space in components])
    )
    # a direct sum meets pairwise in zero, so test pairs only when it is not
    pairwise_zero = direct_sum or all(
        _independent([a.subspace, b.subspace])
        for a, b in combinations(components, 2)
    )
    report = {
        "n": n,
        "k": k,
        "dims": [space.dim for space in components],
        "dims_match": dims_ok,
        "direct_sum": direct_sum,
        "pairwise_zero": pairwise_zero,
        "characters_match": characters_ok,
        "top_is_shift_invariant": None,
    }
    if n % 2 == 0 and k == n // 2:
        # generators holds the l = k ones from the last pass; the top
        # component lies in the kernel of D and has its dimension, so
        # equals it
        report["top_is_shift_invariant"] = (
            all(not f.derivative_sum() for f in generators)
            and components[k].dim == d_kernel_dim(ambient, n)
        )
    return report


def _degree_swap(m: Monomial) -> Monomial:
    """Exchange the exponent-2 and exponent-1 positions of a monomial of
    the x_i^2 x_j shape."""
    i = m.index(2)
    j = m.index(1)
    e = [0] * len(m)
    e[i], e[j] = 1, 2
    return tuple(e)


def example4_check() -> dict:
    """Reproduce the full decomposition of the 12-dimensional space of
    x_i^2 x_j forms in four variables.

    Five explicitly given bases span subspaces of dimensions 1, 2, 3, 3, 3
    whose dimensions add up to 12 and to the rank of their stacked bases,
    so they sum directly to the whole space.  Each is invariant and has the
    restricted character of the shapes (4), (2,2), (2,1,1), (3,1), (3,1);
    `restricted_character` checks the invariance and raises
    NotInvariantError when it fails.  The degree-swap involution splits
    the space into even and odd halves of dimension 12 - rank(swap -+ I),
    6 each, and the third two-row-style product is a signed sum of the
    other two.
    """
    n = 4
    lam = (2, 1, 1)
    ambient = x_monomials(lam, n)
    x = [Form.variable(n, i) for i in range(1, 5)]
    total = x[0] + x[1] + x[2] + x[3]

    d_form = Form(n, {
        m: 1 for m in ambient
    })
    c1 = (x[0] - x[1]) * (x[2] - x[3]) * total
    c2 = (x[0] - x[2]) * (x[1] - x[3]) * total
    c3 = (x[0] - x[3]) * (x[1] - x[2]) * total
    sp1 = (x[0] - x[1]) * (x[0] - x[2]) * (x[1] - x[2])
    sp2 = (x[1] - x[2]) * (x[1] - x[3]) * (x[2] - x[3])
    sp3 = (x[0] - x[2]) * (x[0] - x[3]) * (x[2] - x[3])

    def a_form(kk: int) -> Form:
        out = Form.zero(n)
        for i in range(1, 5):
            for j in range(1, 5):
                if i == j:
                    continue
                eps = 1 if (i == kk or j == kk) else -1
                out = out + eps * (x[i - 1] * x[i - 1] * x[j - 1])
        return out

    def b_form(kk: int) -> Form:
        others = [i for i in range(1, 5) if i != kk]
        lin = sum((x[i - 1] for i in others), Form.zero(n))
        quad = sum((x[i - 1] * x[i - 1] for i in others), Form.zero(n))
        return x[kk - 1] * x[kk - 1] * lin - x[kk - 1] * quad

    groups = {
        "trivial": [d_form],
        "pair": [c1, c2],
        "specht": [sp1, sp2, sp3],
        "even_natural": [a_form(1), a_form(2), a_form(3)],
        "odd_natural": [b_form(1), b_form(2), b_form(3)],
    }
    expected_shapes = {
        "trivial": (4,),
        "pair": (2, 2),
        "specht": (2, 1, 1),
        "even_natural": (3, 1),
        "odd_natural": (3, 1),
    }
    chis = irreducible_characters(n)
    spaces = {name: span_of_forms(fs, ambient) for name, fs in groups.items()}

    dims = {name: space.dim for name, space in spaces.items()}
    characters = {
        name: restricted_character(spaces[name], n) == chis[expected_shapes[name]]
        for name in groups
    }
    # restricted_character raised NotInvariantError unless every span is
    # invariant under both generators of S_4, so each one is invariant
    invariant = dict.fromkeys(groups, True)
    direct_sum = (
        sum(dims.values()) == 12
        and _independent([space.subspace for space in spaces.values()])
    )

    def swapped(f: Form) -> Form:
        return Form(n, {_degree_swap(m): c for m, c in f.terms.items()})

    even = {"trivial", "pair", "even_natural"}
    parity_ok = True
    for name, fs in groups.items():
        want_even = name in even
        for f in fs:
            image = swapped(f)
            if want_even and image != f:
                parity_ok = False
            if not want_even and image != -f:
                parity_ok = False

    # The swap is an involution of the monomials, so its matrix has a 1 in
    # column image[i] of row i; the even and odd halves are the kernels of
    # swap - I and swap + I, of dimension 12 minus their ranks.  A fixed
    # monomial puts 1 + sign on the diagonal.
    index = {m: i for i, m in enumerate(ambient)}
    image = [index[_degree_swap(m)] for m in ambient]

    def swap_plus(sign: int) -> list[dict[int, int]]:
        return [{i: sign + 1} if i == j else {i: sign, j: 1}
                for i, j in enumerate(image)]

    even_dim = 12 - rank(swap_plus(-1))
    odd_dim = 12 - rank(swap_plus(1))

    return {
        "dims": dims,
        "invariant": invariant,
        "characters_match": characters,
        "direct_sum": direct_sum,
        "even_odd_dims": (even_dim, odd_dim),
        "parity_assignments": parity_ok,
        "c_relation": not (c1 - c2 + c3),
    }
