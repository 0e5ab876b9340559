"""How a congruence kills an equation: the mod 17 contradiction.

Run:  python demos/02_congruence_sieve.py

The branch of the (20k, 99k, 101k) analysis where k is divisible by 10
reduces the equation to 101^z - 1 = 99^y * 2^a * 5^b with z even.  The
sieve shows this has no solutions: modulo 17, the left side vanishes for
even z while the right side is a product of units and cannot.
"""

from jesma.sieve import ConstraintSet, congruence_solutions, find_killing_modulus, two_term_solutions
from jesma.symbolic import ExpExpr, Lin, Term

v = lambda name: ExpExpr(Lin.var(name))

terms = [
    Term.of(1, (101, v("z"))),
    Term.of(-1),
    Term.of(-1, (99, v("y")), (2, v("a")), (5, v("b"))),
]

# First, the raw fact: 101 has multiplicative order 2 modulo 17, so for
# even z the difference 101^z - 1 is divisible by 17.
rcs = congruence_solutions([Term.of(1, (101, v("z"))), Term.of(-1)], 17)
print(f"101^z == 1 (mod 17): z mod {rcs.period_of('z')} in {sorted(rcs.project('z'))}")

# Under the z-even constraint no assignment of residues satisfies the
# full congruence; the scan also shows 17 is the first modulus that works.
even_z = ConstraintSet.none().with_parity("z", 0)
witness = find_killing_modulus(terms, even_z, m_max=100)
print(f"killing modulus: {witness.modulus}")
print(f"smaller moduli scanned and survived: {witness.scanned[:-1]}")
print(f"moduli skipped as unrepresentable: {[m for m, _ in witness.skipped]}")

# Without the parity constraint the congruence is satisfiable (odd z
# gives 101^z == -1), so no modulus can kill it -- constraints matter.
print("without z even:", "no kill" if find_killing_modulus(terms, m_max=40).modulus is None else "killed")

# A second classical step: 2^z == 5^x (mod 33).  The full solution set on
# the 10 x 10 residue torus projects to 'x and z both even'; fixing x = 2
# pins z to the single class 8 (mod 10).
full = two_term_solutions(2, 5, 33)
print(f"2^z == 5^x (mod 33): {sorted(full.tuples)} over (x mod 10, z mod 10)")
fixed = two_term_solutions(2, 5, 33, ConstraintSet.none().with_fixed("x", 2))
print(f"with x = 2: z mod 10 in {sorted(fixed.project('z'))}")
