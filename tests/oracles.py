"""Brute-force oracles used by the test suite only.

These recompute characters from explicit group elements, explicit
combinatorial objects, expanded polynomials, cycles placed into rows and
border strips, staying independent of the library's monomial expansion of
the power sums and of its orthogonalization,
pair class functions by Fraction sums over enumerated class sizes
rather than by the library's `inner`, and reduce matrices
by plain Fraction Gauss-Jordan elimination, independent of the library's
fraction-free `rref`.  The two-row components are spanned here by their
product over every pairing, not by standard tableaux, and the squarefree
monomials are listed one per subset of the variables, not as the monomial
model of a two-row shape.  Specht polynomials and the standard two-row
generators are multiplied out here one binomial at a time by the merging
product of forms, not term by term as the library expands them.  Semistandard
tableaux are filled here one cell at a time and tested cell by cell,
independent of the horizontal-strip recursion the library lists them with;
horizontal strips are found among all shapes inside the given one, Kostka
numbers are counted by removing such strips (the library adds them, by
Pieri's rule), the two sides of the branching recurrences are summed pair
by pair, and a Theorem-4 certificate is checked cell by cell against
those fillings.
Minimum s-t cuts are found by trying every cut, independent of max-flow,
and the max flow is recomputed arc by arc on the list-of-lists network the
library kept before its flat arc arrays (each arc a [head, residual,
reverse index] list), the reference for the library's flow on every arc.
Partitions are generated by a plain recursion on the first part, with
no table and no search for the admissible tails.  The shapes a partition
covers are found by shortening every row and sorting, and dominance by comparing zero-padded prefix sums row by row.
The multiplicity table is recomputed from the library's permutation
characters by the plain orthogonalization the library ran before it
packed integers (one integer dot product per pair, class sizes from the
z_rho formula), the reference for the packed one.
Unitriangularity of a deviation system is read entry by entry off its
dense matrix with the columns reordered, not off sparse rows, and bar(mu)
is the first shape `predecessors_oracle` lists.
The explicit permutations (0-based image tuples), the substitution action
on forms and the tableau text parser are built here too: from the library
the oracles take only its types and enumerations.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, compress, permutations as iperms, product
from math import factorial, gcd, lcm
from operator import mul
from typing import Optional

from younglab.characters import ClassFunction, class_types
from younglab.forms import Form
from younglab.partitions import Partition
from younglab.tableaux import enumerate_standard

Permutation = tuple[int, ...]
Tabloid = tuple[frozenset, ...]


def identity(n: int) -> Permutation:
    return tuple(range(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def all_permutations(n: int) -> list[Permutation]:
    return [tuple(p) for p in iperms(range(n))]


def cycles(p: Permutation) -> list[list[int]]:
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(cyc)
    return out


def cycle_type(p: Permutation) -> Partition:
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def sign(p: Permutation) -> int:
    return -1 if (len(p) - len(cycles(p))) % 2 else 1


def from_cycle_type(rho: Partition) -> Permutation:
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


def act(f: Form, sigma: Permutation) -> Form:
    """Substitute x_i -> x_{sigma(i)} (sigma 0-based on positions): the
    exponent of x_i in a monomial moves to position sigma(i)."""
    out: dict = {}
    for m, c in f.terms.items():
        img = [0] * len(sigma)
        for i, e in enumerate(m):
            img[sigma[i]] = e
        key = tuple(img)
        out[key] = out.get(key, 0) + c
    return Form(f.n, out)


def degree(f: Form) -> int:
    """Total degree of f; 0 for the zero form."""
    return max((sum(m) for m in f.terms), default=0)


def parse_tableau(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse the "1,1,1,2/2,3" text format (rows joined by "/")."""
    rows = []
    for chunk in text.split("/"):
        rows.append(tuple(int(s) for s in chunk.split(",") if s.strip()))
    return tuple(rows)


def tabloids(lam: Partition) -> list[Tabloid]:
    """All ordered set partitions of {0..n-1} with block sizes lam."""
    n = sum(lam)

    def rec(remaining: frozenset, i: int):
        if i == len(lam):
            yield ()
            return
        for block in combinations(sorted(remaining), lam[i]):
            fs = frozenset(block)
            for rest in rec(remaining - fs, i + 1):
                yield (fs,) + rest

    return list(rec(frozenset(range(n)), 0))


def perm_character_tabloid_oracle(lam: Partition) -> ClassFunction:
    """Permutation character by counting fixed tabloids directly."""
    n = sum(lam)
    tabs = tabloids(lam)
    values = []
    for rho in class_types(n):
        g = from_cycle_type(rho)
        fixed = sum(
            1
            for tab in tabs
            if all(frozenset(g[x] for x in block) == block for block in tab)
        )
        values.append(fixed)
    return ClassFunction(n, tuple(values))


def perm_character_placement_oracle(lam: Partition) -> ClassFunction:
    """Permutation character by placing the cycles of each class one at a
    time into the rows: a cycle of length r goes into any of the
    room.count(c) rows with room c >= r.  The number of ways to finish
    depends only on the multiset of room left and the cycles still to
    place, so one memo keyed by that pair serves every class of lam."""

    @cache
    def ways(room: Partition, cycles: Partition) -> int:
        if not cycles:
            return 1
        r, rest = cycles[0], cycles[1:]
        total = 0
        for c in set(room):
            if c >= r:
                left = list(room)
                left.remove(c)
                if c > r:
                    left.append(c - r)
                total += room.count(c) * ways(tuple(sorted(left, reverse=True)), rest)
        return total

    n = sum(lam)
    return ClassFunction(n, tuple(ways(lam, rho) for rho in class_types(n)))


@cache
def _border_strips(beta: frozenset, cycles: Partition) -> int:
    if not cycles:
        return 1
    r, rest = cycles[0], cycles[1:]
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            between = sum(1 for x in beta if b - r < x < b)
            total += (-1) ** between * _border_strips(beta - {b} | {b - r}, rest)
    return total


def murnaghan_nakayama_oracle(lam: Partition, rho: Partition) -> int:
    """Irreducible character value chi^lam(rho) by the Murnaghan-Nakayama
    rule on beta-sets: removing a border strip of length r moves one bead b
    of {lam_i + k - i} to an empty position b - r, with sign -1 to the
    number of beads it jumps over.  Memoized on (beta-set, cycles left)."""
    k = len(lam)
    return _border_strips(frozenset(part + k - i for i, part in enumerate(lam, 1)), rho)


def trivial_character(n: int) -> ClassFunction:
    return ClassFunction(n, (1,) * len(class_types(n)))


def sign_character(n: int) -> ClassFunction:
    """The sign of one explicit permutation of each cycle type."""
    return ClassFunction(n, tuple(sign(from_cycle_type(rho)) for rho in class_types(n)))


def double_coset_count(lam: Partition, mu: Partition) -> int:
    """Nonnegative integer matrices with row sums lam and column sums mu,
    enumerated row by row.  By Mackey's formula this is the number of
    double cosets of the row stabilizers of lam and mu in S_n, and the
    pairing of their permutation characters."""

    def count(i: int, cols: tuple[int, ...]) -> int:
        if i == len(lam):
            return int(not any(cols))
        return sum(
            count(i + 1, tuple(c - x for c, x in zip(cols, row)))
            for row in product(*(range(min(c, lam[i]) + 1) for c in cols))
            if sum(row) == lam[i]
        )

    return count(0, tuple(mu))


def column_group(lam: Partition) -> list[Permutation]:
    """All permutations preserving each column of the row-major filling."""
    n = sum(lam)
    starts = [0]
    for part in lam:
        starts.append(starts[-1] + part)
    ncols = lam[0] if lam else 0
    cols = [
        [starts[i] + j for i in range(len(lam)) if lam[i] > j]
        for j in range(ncols)
    ]
    group = [identity(n)]
    for col in cols:
        extended = []
        for arrangement in iperms(col):
            p = list(range(n))
            for src, dst in zip(col, arrangement):
                p[src] = dst
            extended.extend(compose(tuple(p), q) for q in group)
        group = extended
    return group


def ind_sgn_coset_oracle(lam: Partition) -> ClassFunction:
    """Character induced from the sign of the column group, summed over
    explicit group elements."""
    n = sum(lam)
    members = set(column_group(lam))
    order = len(members)
    values = []
    for rho in class_types(n):
        g = from_cycle_type(rho)
        total = 0
        for x in all_permutations(n):
            y = compose(inverse(x), compose(g, x))
            if y in members:
                total += sign(y)
        values.append(Fraction(total, order))
    return ClassFunction(n, tuple(values))


def class_size_oracle(rho: Partition) -> int:
    """Count permutations of the given cycle type by enumeration."""
    return sum(1 for p in all_permutations(sum(rho)) if cycle_type(p) == rho)


@cache
def _class_sizes_oracle(n: int) -> dict[Partition, int]:
    return {rho: class_size_oracle(rho) for rho in class_types(n)}


def pairing_oracle(f: ClassFunction, g: ClassFunction) -> Fraction:
    """(1/n!) sum over cycle types rho of |C_rho| f(rho) g(rho), each class
    size counted by enumeration and the sum taken term by term in
    Fractions."""
    n = f.n
    sizes = _class_sizes_oracle(n)
    total = Fraction(0)
    for rho in class_types(n):
        total += Fraction(sizes[rho] * f(rho) * g(rho), factorial(n))
    return total


def _class_sizes_by_formula(n: int) -> list[int]:
    """n!/z_rho for each cycle type in the frozen order, z_rho being the
    product over each part length r, present m times, of r^m m!."""
    out = []
    for rho in class_types(n):
        z = 1
        for r in set(rho):
            m = rho.count(r)
            z *= r ** m * factorial(m)
        out.append(factorial(n) // z)
    return out


def orthogonalization_oracle(n: int, psis: dict) -> tuple[dict, dict]:
    """Multiplicity rows and irreducible characters of degree n from the
    given permutation characters (keyed in the frozen order), by the plain
    orthogonalization the library ran before it packed integers: each psi,
    weighted by the class sizes once on its nonzero classes, is paired with
    every irreducible found so far by one integer dot product and one
    exact division by n!, and loses the multiplicities times those
    irreducibles class by class.  Returns (rows, characters) like the
    library's table; a broken step raises AssertionError, also under
    `python -O`."""
    sizes, nfact = _class_sizes_by_formula(n), factorial(n)
    rows: dict = {}
    chis: dict = {}
    columns: list[list[int]] = [[] for _ in sizes]  # irreducibles so far, by class
    for lam, psi in psis.items():
        values = psi.values
        weighted = [size * v for size, v in zip(sizes, values) if v]
        ms = []
        for chi in chis.values():
            m, r = divmod(sum(map(mul, weighted, compress(chi.values, values))), nfact)
            if r or m < 0:
                raise AssertionError((lam, m, r))
            ms.append(m)
        reduced = tuple(v - sum(map(mul, ms, col)) for v, col in zip(values, columns))
        if sum(s * v * v for s, v in zip(sizes, reduced)) != nfact:
            raise AssertionError(lam)
        chis[lam] = ClassFunction(n, reduced)
        rows[lam] = (*ms, 1)
        for col, v in zip(columns, reduced):
            col.append(v)
    return rows, chis


def theorem1_components_oracle(lam: Partition, psis: dict, rows: dict,
                               chis: dict) -> list[tuple[Partition, int, int]]:
    """The irreducibles common to the row- and column-induced modules of
    lam, from the oracle's table: the column-induced character is psi of
    the conjugate shape times the sign (-1)^(n - number of cycles), and
    each multiplicity b in it one integer dot product divided by n!."""
    n = sum(lam)
    conj = tuple(sum(1 for part in lam if part > j) for j in range(lam[0])) if lam else ()
    signs = [(-1) ** (n - len(rho)) for rho in class_types(n)]
    phi = [s * v for s, v in zip(signs, psis[conj].values)]
    weighted = [size * v for size, v in zip(_class_sizes_by_formula(n), phi)]
    out = []
    for (mu, chi), a in zip(chis.items(), rows[lam]):
        b, r = divmod(sum(map(mul, weighted, chi.values)), factorial(n))
        if r:
            raise AssertionError((lam, mu))
        if a and b:
            out.append((mu, a, b))
    return out


def power_sum_expansion_oracle(rho: Partition, k: int) -> dict[tuple[int, ...], int]:
    """The power sum p_rho = prod over parts r of (x_1^r + ... + x_k^r),
    expanded in full as a dict from exponent vectors to coefficients; the
    coefficient of x^lam is the value at rho of the lam permutation
    character."""
    poly = {(0,) * k: 1}
    for r in rho:
        expanded: dict[tuple[int, ...], int] = {}
        for exps, c in poly.items():
            for i in range(k):
                key = exps[:i] + (exps[i] + r,) + exps[i + 1:]
                expanded[key] = expanded.get(key, 0) + c
        poly = expanded
    return poly


def rref_oracle(rows, ncols: int):
    """Reduced row echelon form by Fraction Gauss-Jordan elimination:
    (rows as tuples of Fraction, rank, pivot columns).  The pivot of each
    step is the first row with a nonzero entry in the current column."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        src = next((i for i in range(r, len(m)) if m[i][c]), None)
        if src is None:
            continue
        m[r], m[src] = m[src], m[r]
        mr = m[r]
        inv = 1 / mr[c]
        mr[c:] = [x * inv for x in mr[c:]]
        for i, mi in enumerate(m):
            f = mi[c]
            if i != r and f:
                mi[c:] = [x - f * y for x, y in zip(mi[c:], mr[c:])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in m), r, pivots


def _coefficient_columns(forms: list[Form]) -> list[list]:
    """Dense matrix with one column per form and one row per monomial
    that occurs in any of them."""
    monomials = sorted({m for f in forms for m in f.terms})
    return [[f.terms.get(m, 0) for f in forms] for m in monomials]


def span_rank_oracle(forms: list[Form]) -> int:
    """Dimension of the span of the forms, by `rref_oracle`."""
    return rref_oracle(_coefficient_columns(forms), len(forms))[1]


def restricted_character_oracle(forms: list[Form], n: int) -> ClassFunction:
    """Character of the substitution action on the span of the forms, class
    by class.  The basis is the forms at the pivot columns of the matrix
    whose columns are all of them.  The images of the d basis forms under
    one explicit permutation of each class are solved for their
    coordinates in that basis by one `rref_oracle` on the columns
    [basis | images of class 1 | images of class 2 | ...], and the trace
    of a class is the diagonal of its block of coordinates."""
    _, d, pivots = rref_oracle(_coefficient_columns(forms), len(forms))
    basis = [forms[j] for j in pivots]
    types = class_types(n)
    images = [act(f, from_cycle_type(rho)) for rho in types for f in basis]
    red, rank, _ = rref_oracle(_coefficient_columns(basis + images), d * (len(types) + 1))
    if rank != d:
        raise AssertionError("the span is not invariant")
    return ClassFunction(n, tuple(
        sum(red[i][d * (c + 1) + i] for i in range(d)) for c in range(len(types))))


def primitive_row_oracle(row: dict) -> dict[int, int]:
    """A nonzero sparse row of rationals scaled to its primitive integer
    multiple whose first entry is positive: times the lcm of the
    denominators, then divided by the signed gcd of the numerators."""
    scale = lcm(*(Fraction(x).denominator for x in row.values()))
    ints = {j: int(x * scale) for j, x in row.items()}
    content = gcd(*ints.values()) * (1 if ints[min(ints)] > 0 else -1)
    return {j: x // content for j, x in ints.items()}


def sparse_rref_oracle(rows, ncols: int) -> dict[int, dict]:
    """The nonzero pivot-1 rows of `rref_oracle`, each scaled to its
    primitive integer row with a positive pivot by `primitive_row_oracle`,
    keyed by their pivot column in pivot order: the form `rref` returns."""
    red, rk, pivots = rref_oracle(rows, ncols)
    return dict(zip(pivots, map(primitive_row_oracle, sparse_rows(red[:rk]))))


def sparse_rows(rows, rng=None) -> list[dict]:
    """The rows of a dense matrix as sparse {column: value} dicts, the form
    `rank`, `rref` and `Subspace` take.  With a random.Random, the same row
    space in the other shapes a producer may hand over: keys in shuffled
    order, explicit zero values, rows scaled by a nonzero Fraction, and
    empty rows mixed in."""
    if rng is None:
        return [{j: x for j, x in enumerate(row) if x} for row in rows]
    out = []
    for row in rows:
        scale = rng.choice((1, Fraction(-2, 7), Fraction(3, 2)))
        items = [(j, x * scale) for j, x in enumerate(row) if x or rng.random() < 0.3]
        rng.shuffle(items)
        out.append(dict(items))
        if rng.random() < 0.2:
            out.append({})
    return out


def dense_rows(report) -> list[list[int]]:
    """The sparse {column: 1} rows of a deviation system laid out densely."""
    return [[row.get(j, 0) for j in range(len(report.col_index))] for row in report.matrix]


def unipotent_oracle(report) -> bool:
    """Whether the dense matrix of a deviation system is unitriangular once
    the column of each mu is moved to the row of bar(mu); False when
    mu -> bar(mu) is not a bijection onto the rows."""
    rows, cols = report.row_index, report.col_index
    entries = dense_rows(report)
    images = [predecessors_oracle(mu)[0][0] for mu in cols]
    if len(set(images)) != len(images) or set(images) != set(rows):
        return False
    row_pos = {rho: i for i, rho in enumerate(rows)}
    perm = [0] * len(cols)
    for j, image in enumerate(images):
        perm[row_pos[image]] = j
    for i in range(len(rows)):
        for k in range(len(cols)):
            entry = entries[i][perm[k]]
            if k == i and entry != 1:
                return False
            if k < i and entry != 0:
                return False
    return True


def _pairings(items: tuple[int, ...]):
    """Every partition of items into unordered pairs, the first item paired
    with each later one in turn."""
    if not items:
        yield ()
        return
    for i in range(1, len(items)):
        for rest in _pairings(items[1:i] + items[i + 1:]):
            yield ((items[0], items[i]),) + rest


def squarefree_oracle(n: int, k: int) -> list[tuple[int, ...]]:
    """Every degree-k squarefree monomial in n variables, one per k-subset
    of the variables, in the frozen order (all of one degree, so
    descending lex)."""
    monos = []
    for combo in combinations(range(n), k):
        e = [0] * n
        for i in combo:
            e[i] = 1
        monos.append(tuple(e))
    return sorted(monos, reverse=True)


def pairing_generators_oracle(n: int, l: int, k: int) -> list[Form]:
    """Spanning set of the l-th component of the squarefree degree-k space:
    for each 2l-subset of the variables and each pairing of it, the product
    of the l differences x_a - x_b times the sum of every squarefree
    degree-(k-l) monomial in the other variables."""
    out = []
    for support in combinations(range(1, n + 1), 2 * l):
        rest = [i for i in range(1, n + 1) if i not in support]
        tail = Form(n, {
            tuple(int(i in c) for i in range(1, n + 1)): 1
            for c in combinations(rest, k - l)
        })
        for pairing in _pairings(support):
            f = tail
            for a, b in pairing:
                f = f * (Form.variable(n, a) - Form.variable(n, b))
            out.append(f)
    return out


def specht_product_oracle(t, n: int) -> Form:
    """The Specht polynomial of a filling: the product over its columns of
    every difference x_a - x_b, a above b, multiplied out one binomial at a
    time with the merging product of `Form`."""
    result = Form(n, {(0,) * n: 1})
    for j in range(len(t[0]) if t else 0):
        column = [row[j] for row in t if j < len(row)]
        for a, b in combinations(column, 2):
            result = result * (Form.variable(n, a) - Form.variable(n, b))
    return result


def difference_product_oracle(n: int, l: int, k: int) -> list[Form]:
    """For each standard tableau t of (n-l, l), in listing order,
    `specht_product_oracle` of t times the sum of every squarefree
    degree-(k-l) monomial in the variables of t's first row right of
    column l, multiplied out by the merging product."""
    out = []
    for t in enumerate_standard((n - l, l) if l else (n,)):
        tail = Form(n, {
            tuple(int(i in c) for i in range(1, n + 1)): 1
            for c in combinations(t[0][l:], k - l)
        })
        out.append(specht_product_oracle(t, n) * tail)
    return out


def ssyt_backtracking_oracle(shape: Partition, weight: tuple[int, ...]) -> list:
    """Semistandard tableaux of the given shape and weight, filling the
    cells in row-major order with the smallest admissible symbol first and
    backtracking, so they come in lex order of the row-reading word."""
    nsym = len(weight)
    cells = [(i, j) for i in range(len(shape)) for j in range(shape[i])]
    rows = [[0] * part for part in shape]
    remaining = list(weight)
    out = []

    def fill(k: int) -> None:
        if k == len(cells):
            out.append(tuple(tuple(r) for r in rows))
            return
        i, j = cells[k]
        lo = rows[i][j - 1] if j else 1
        if i:
            lo = max(lo, rows[i - 1][j] + 1)
        for s in range(lo, nsym + 1):
            if remaining[s - 1]:
                rows[i][j] = s
                remaining[s - 1] -= 1
                fill(k + 1)
                remaining[s - 1] += 1
        rows[i][j] = 0

    fill(0)
    return out


def semistandard_oracle(t) -> bool:
    """Semistandardness tested cell by cell: row lengths weakly decrease,
    every entry is at least 1, at least its left neighbour and more than
    the entry above it."""
    shape = [len(row) for row in t]
    if any(shape[i + 1] > shape[i] for i in range(len(shape) - 1)):
        return False
    for i, row in enumerate(t):
        for j, x in enumerate(row):
            if x < 1 or (j and x < row[j - 1]):
                return False
            if i and j < len(t[i - 1]) and x <= t[i - 1][j]:
                return False
    return True


def tableau_shape(t) -> Partition:
    return tuple(len(row) for row in t)


def tableau_weight(t) -> tuple[int, ...]:
    """Occurrence counts of the symbols 1..max."""
    top = max((x for row in t for x in row), default=0)
    return tuple(sum(row.count(x) for row in t) for x in range(1, top + 1))


def strips_oracle(mu: Partition, size: int) -> list[Partition]:
    """The shapes nu inside mu with mu/nu a horizontal strip of `size`
    cells: among all nu with 0 <= nu[i] <= mu[i], those with
    mu[i+1] <= nu[i] and |mu| - |nu| = size, trailing zeros removed."""
    below = mu[1:] + (0,)
    return [
        tuple(x for x in nu if x)
        for nu in product(*(range(part + 1) for part in mu))
        if all(b <= x for b, x in zip(below, nu)) and sum(mu) - sum(nu) == size
    ]


@cache
def kostka_strip_oracle(mu: Partition, w: tuple[int, ...]) -> int:
    """K(mu, w) by the removal recursion the library counted with before
    its Pieri chains: the cells holding the largest symbol form a horizontal
    strip of w[-1] cells, so K(mu, w) sums K(nu, w[:-1]) over the shapes
    `strips_oracle` leaves when such a strip is removed from mu."""
    if not w:
        return 1 if not mu else 0
    if len(mu) > len(w):
        return 0
    return sum(kostka_strip_oracle(nu, w[:-1]) for nu in strips_oracle(mu, w[-1]))


def branching_sides_oracle(big, small, lam: Partition, rho: Partition) -> tuple[int, int]:
    """Both sides of the branching recurrence for one pair, summed pair by
    pair from the values big(mu, lam) and small(rho, gamma): over the
    shapes `_covers_oracle` finds above rho, and over those
    `predecessors_oracle` finds below lam with their multiplicities."""
    left = sum(big(mu, lam) for mu in _covers_oracle(rho))
    right = sum(c * small(rho, gamma) for gamma, c in predecessors_oracle(lam))
    return left, right


def partitions_oracle(n: int, largest: Optional[int] = None):
    """The partitions of n with parts at most `largest` (default n), each
    first part from the largest down and the rest by recursion: descending
    lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if largest is None else largest), 0, -1):
        for rest in partitions_oracle(n - first, first):
            yield (first, *rest)


def predecessors_oracle(lam: Partition) -> list[tuple[Partition, int]]:
    """Each row of lam shortened by one cell and the parts sorted again:
    the distinct results, in the order of the first row giving each, with
    the number of rows giving each."""
    counts: dict[Partition, int] = {}
    for i in range(len(lam)):
        shortened = [part - (j == i) for j, part in enumerate(lam)]
        gamma = tuple(sorted((part for part in shortened if part), reverse=True))
        counts[gamma] = counts.get(gamma, 0) + 1
    return list(counts.items())


def dominates_oracle(mu: Partition, lam: Partition) -> bool:
    """Whether every prefix sum of mu is at least lam's, the shorter
    partition padded with zeros."""
    acc_mu = acc_lam = 0
    for k in range(max(len(mu), len(lam))):
        acc_mu += mu[k] if k < len(mu) else 0
        acc_lam += lam[k] if k < len(lam) else 0
        if acc_mu < acc_lam:
            return False
    return True


def _covers_oracle(rho: Partition) -> list[Partition]:
    """The partitions made by adding one cell to some row of rho."""
    grown = (rho[:i] + (rho[i] + 1,) + rho[i + 1:] for i in range(len(rho)))
    return [mu for mu in (*grown, rho + (1,))
            if all(a >= b for a, b in zip(mu, mu[1:]))]


@cache
def _ssyt_count_oracle(shape: Partition, weight: tuple[int, ...]) -> int:
    return len(ssyt_backtracking_oracle(shape, weight))


def certificate_check_oracle(cert) -> bool:
    """The conditions of a Theorem-4 certificate, restated cell by cell:
    each left tableau is semistandard (`semistandard_oracle`) of weight lam
    with a shape that covers rho; each removed symbol x lies in 1..len(lam)
    and its gamma weight is lam with one x removed (trailing zeros
    dropped); each right tableau is semistandard of shape rho and that
    gamma weight; the canonical flag is set exactly when x is the first
    row where the left shape exceeds rho and the right tableau is the left
    one with the last x of its row x deleted; no left item and no
    (gamma, right) item repeats; and there are as many pairs as
    backtracking finds tableaux on each side."""
    lam, rho = cert.lam, cert.rho
    covers = _covers_oracle(rho)
    gammas = {}
    for x in range(1, len(lam) + 1):
        gamma = list(lam)
        gamma[x - 1] -= 1
        while gamma and not gamma[-1]:
            gamma.pop()
        gammas[x] = tuple(gamma)
    for p in cert.pairs:
        t, s = p.mu_tableau, p.rho_tableau
        if not (semistandard_oracle(t) and tableau_shape(t) in covers
                and tableau_weight(t) == lam):
            return False
        if p.removed_symbol not in gammas or p.gamma_weight != gammas[p.removed_symbol]:
            return False
        if not (semistandard_oracle(s) and tableau_shape(s) == rho
                and tableau_weight(s) == p.gamma_weight):
            return False
        row = next(i for i, part in enumerate(tableau_shape(t), 1)
                   if part != (rho[i - 1] if i <= len(rho) else 0))
        if p.canonical != (p.removed_symbol == row and s == _delete_last_oracle(t, row)):
            return False
    n = len(cert.pairs)
    if len({p.mu_tableau for p in cert.pairs}) != n:
        return False
    if len({(p.gamma_weight, p.rho_tableau) for p in cert.pairs}) != n:
        return False
    left = sum(_ssyt_count_oracle(mu, lam) for mu in covers)
    right = sum(_ssyt_count_oracle(rho, gamma) for gamma in gammas.values())
    return left == right == n


def _delete_last_oracle(t, row: int):
    """t with the last entry equal to `row` deleted from its row `row`, an
    emptied row dropped; None when that row holds no such entry."""
    cells = list(t[row - 1])
    if row not in cells:
        return None
    del cells[len(cells) - 1 - cells[::-1].index(row)]
    return tuple(t[:row - 1]) + ((tuple(cells),) if cells else ()) + tuple(t[row:])


def min_cut_oracle(n: int, arcs, s: int, t: int) -> int:
    """Least capacity of an s-t cut of the network on nodes 0..n-1 with
    arcs (u, v, cap), found by trying every source side: s with any subset
    of the nodes other than s and t."""
    others = [v for v in range(n) if v not in (s, t)]
    sides = (
        {s} | {v for v, p in zip(others, picked) if p}
        for picked in product((False, True), repeat=len(others))
    )
    return min(
        sum(cap for u, v, cap in arcs if u in side and v not in side)
        for side in sides
    )


class ListDinic:
    """`linsys._Dinic` as it was on lists: each arc a [head, residual,
    reverse index] list in adj[u], the same labels by residual distance to
    the sink, arc order, it[u] pointers and -1 mark of a spent node.  It is
    the arc-by-arc reference for the library's flat arc arrays."""

    def __init__(self, n: int):
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def _levels(self, s: int, t: int) -> Optional[list[int]]:
        """Residual distances to t, by a BFS backward from t that stops once
        s is labelled; None when s cannot reach t.  Seen from adj[v], the
        arc u -> v has the residual capacity adj[u][rev][1]."""
        adj = self.adj
        dist = [-1] * len(adj)
        dist[t] = 0
        queue = [t]
        for v in queue:
            d = dist[v] + 1
            for u, _, rev in adj[v]:
                if dist[u] < 0 and adj[u][rev][1]:
                    dist[u] = d
                    if u == s:
                        return dist
                    queue.append(u)
        return None

    def _push(self, u: int, t: int, limit: int, dist, it) -> int:
        """Push up to `limit` from u to t along the arcs u -> v with
        dist[v] == dist[u] - 1; it[u] moves only past saturated or blocked
        arcs, and a node whose arcs are all spent leaves the phase."""
        if u == t:
            return limit
        total = 0
        below = dist[u] - 1
        while it[u] < len(self.adj[u]):
            edge = self.adj[u][it[u]]
            v, cap, rev = edge
            if cap and dist[v] == below:
                pushed = self._push(v, t, min(limit - total, cap), dist, it)
                if pushed:
                    edge[1] -= pushed
                    self.adj[v][rev][1] += pushed
                    total += pushed
                    if total == limit:
                        return total
            it[u] += 1
        dist[u] = -1  # blocked: no later arc of this phase may enter u
        return total

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            dist = self._levels(s, t)
            if dist is None:
                return flow
            flow += self._push(s, t, 1 << 62, dist, [0] * len(self.adj))


def dinic_oracle(n: int, arcs, s: int, t: int) -> tuple[int, list[int]]:
    """The max-flow value of the network on nodes 0..n-1 with arcs
    (u, v, cap), added in that order to a `ListDinic`, and the flow on
    each arc: its capacity less its residual."""
    net = ListDinic(n)
    slots = []
    for u, v, cap in arcs:
        slots.append((u, len(net.adj[u])))
        net.add_edge(u, v, cap)
    value = net.max_flow(s, t)
    return value, [cap - net.adj[u][idx][1] for (_, _, cap), (u, idx) in zip(arcs, slots)]
