"""Tour of the exhaustive searches: every known solution set, recomputed.

Run:  python demos/01_solution_sets.py
"""

from jesma.search import find_solutions, find_solutions_scaled
from jesma.triples import Triple, jesmanowicz_family, lu_family

# The founding example: 3^x + 4^y = 5^z has x = y = z = 2 as its only
# solution in positive integers.  The search scans the (x, y) grid and
# recovers z exactly from the sum, so no z bound is ever guessed.
report = find_solutions((3, 4, 5), 30, 30)
print(f"{report.describe()}: {sorted(report.solution_set())}")

# The conjecture says the same for every Pythagorean triple.  The family
# (2n+1, 2n(n+1), 2n(n+1)+1) provided the first proved cases beyond it.
for n in range(1, 6):
    t = jesmanowicz_family(n)
    sols = find_solutions_scaled(t, 1, 25, 25).solution_set()
    print(f"n={n}: {t.label():24s} -> {sorted(sols)}")

# Scaling by a common factor k changes the equation genuinely: the sides
# no longer share a power of k.  Solutions nevertheless stay at (2,2,2)
# for these families, which is what the certificates prove for ALL k.
t = Triple(20, 99, 101)
for k in (1, 7, 33, 50):
    sols = find_solutions_scaled(t, k, 20, 20).solution_set()
    print(f"(20k)^x+(99k)^y=(101k)^z, k={k:2d} -> {sorted(sols)}")

# Not every equation of this shape is so rigid: with non-Pythagorean
# bases two solutions can coexist.
for a, b, c in ((3, 2, 5), (7, 2, 3), (89, 2, 91)):
    sols = find_solutions((a, b, c), 30, 30).solution_set()
    print(f"{a}^x + {b}^y = {c}^z -> {sorted(sols)}")

# The quadratic variant x^2 + b^m = c^n ("Terai type") searches x as a
# free base via exact integer square roots.
for b, c in ((3, 5), (2, 3)):
    report = find_solutions((b, c), 10, 10, form="terai")
    print(report.describe(), "->", list(report.solutions))

# Lu's family (4n^2-1, 4n, 4n^2+1) at n = 5 is the triple (99, 20, 101)
# whose scaled equation the shipped certificate settles for every k.
print("lu_family(5) =", lu_family(5).label())
