"""Exact combinatorics of Young diagrams: Kostka numbers, symmetric-group
characters, multiplicity recurrences, and Specht modules in polylinear
forms.  Everything is exact: class functions, forms and matrices hold
Python integers, and the linear algebra runs over the rationals by
fraction-free integer elimination down to primitive integer RREF rows; a
Fraction enters the form layer only as a caller's Rational coefficient,
and no floating point appears anywhere in the math core.
"""

from .partitions import (
    Partition,
    bar,
    conjugate,
    dominates,
    enumerate_partitions,
    parse_partition,
    format_partition,
    partition_count,
    predecessors,
    standard_count,
    successors,
)
from .tableaux import (
    enumerate_ssyt,
    enumerate_standard,
    eq2_check,
    kostka,
    theorem4_bijection,
)
from .characters import (
    ClassFunction,
    class_size,
    ind_sgn_character,
    inner,
    irreducible_characters,
    lemma1_check,
    multiplicity_table,
    perm_character,
    sign_twist,
    theorem1_check,
    eq1_check,
)
from .linsys import polymorphism_feasibility, statement1_check
from .forms import (
    Form,
    example4_check,
    specht_module,
    specht_poly,
    statement2_check,
    theorem5_check,
    two_row_decomposition,
    x_monomials,
)

__version__ = "0.1.0"
