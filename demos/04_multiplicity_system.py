"""The homogeneous system on multiplicity deviations: when the cell-removal
map identifies unknowns with equations, the system is unitriangular and
forces the deviations to vanish.

Run:  python3 demos/04_multiplicity_system.py
"""

from collections import Counter

from younglab.linsys import statement1_check
from younglab.partitions import enumerate_partitions, format_partition


def show_system(lam):
    report = statement1_check(lam)
    print(f"lambda = {format_partition(lam)}")
    print("    columns:", "  ".join(format_partition(c) for c in report.col_index))
    for rho, row in zip(report.row_index, report.matrix):
        print(f"    {format_partition(rho):>8} |",
              " ".join(str(row.get(j, 0)) for j in range(len(report.col_index))))
    print(f"    bar-bijective: {report.bar_bijective}  square: {report.square}  "
          f"unipotent: {report.unipotent}  kernel dim: {report.kernel_dim}")
    print()


print("A shape with a long first row (2*lam_1 > n): everything collapses")
print("to a unitriangular square system with zero kernel.")
show_system((3, 1))

print("The boundary case lam_1 = n/2 already breaks the identification:")
print("(3,1) and (2,2) both lose their cell to (2,1), the system is 2x3,")
print("and a one-dimensional kernel appears.")
show_system((2, 2))

print("Kernel dimensions across all shapes (experimental output; the")
print("uniqueness question away from the bijective case is open):")
for n in range(2, 9):
    counts = Counter(
        statement1_check(lam).kernel_dim for lam in enumerate_partitions(n)
    )
    summary = ", ".join(f"dim {d}: {c} shapes" for d, c in sorted(counts.items()))
    print(f"    n = {n}: {summary}")
