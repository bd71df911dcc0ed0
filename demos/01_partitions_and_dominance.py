"""Walk through the partition layer: the frozen enumeration order, the
dominance lattice, covering relations, and path counts in the Young graph.

Run:  python3 demos/01_partitions_and_dominance.py
"""

from younglab.partitions import (
    bar,
    conjugate,
    dominance_upset,
    dominates,
    enumerate_partitions,
    format_partition,
    predecessors,
    standard_count,
    successors,
)


def show(p):
    return format_partition(p) or "(empty)"


print("Partitions of 6, in the frozen order ((6) first, column last):")
for lam in enumerate_partitions(6):
    print("   ", show(lam))

print()
print("The order refines reverse dominance: whenever mu strictly dominates")
print("lam, mu is listed first.  Dominance compares prefix sums:")
mu, lam = (3, 2), (2, 2, 1)
print(f"    {show(mu)} dominates {show(lam)}: {dominates(mu, lam)}")
print(f"    conjugates flip it: {show(conjugate(lam))} dominates "
      f"{show(conjugate(mu))}: {dominates(conjugate(lam), conjugate(mu))}")

print()
lam = (2, 2, 1)
print(f"Covers of {show(lam)} in the Young graph, with removal multiplicities:")
for gamma, c in predecessors(lam):
    print(f"    {show(gamma)}  (c = {c})")
print(f"bar({show(lam)}) = {show(bar(lam))}  -- always the dominance-minimal cover")

print()
rho = (4, 1)
print(f"Shapes covering {show(rho)}: "
      + ", ".join(show(m) for m in successors(rho)))

print()
lam = (2, 1, 1)
upset = dominance_upset(lam)
print(f"Shapes dominating {show(lam)}: "
      + ", ".join(show(m) for m in upset)
      + f"   (h = {len(upset)})")

print()
print("Standard-tableau counts f via branching (paths from the empty shape):")
for lam in enumerate_partitions(4):
    print(f"    f({show(lam)}) = {standard_count(lam)}")
n = 5
print(f"Check: n * f(rho) = sum of f over covers, e.g. n = {n}:")
for rho in enumerate_partitions(n - 1):
    lhs = n * standard_count(rho)
    rhs = sum(standard_count(m) for m in successors(rho))
    print(f"    {show(rho)}: {lhs} = {rhs}")
