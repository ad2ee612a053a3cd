# Graded K-theory stable operations as two-sided sequences, the pairing
# with numerical polynomials, and the basis-window decomposition.

import random
from fractions import Fraction

from ckops import (
    NumericalPoly,
    PrimeBudget,
    adams_series,
    decompose_TZ,
    dn_tilde,
    fseq,
    interval_in_N,
    pair,
    to_e_basis,
)
from ckops.kgr import assemble_TZ

budget = PrimeBudget.uniform([2, 3, 5, 7, 11, 13], 8)
T = 16
rng = random.Random(4)

# Numerical polynomials (integer-valued on the integers) pair with series;
# against the m-th Adams series the pairing is plain evaluation at m.
f = to_e_basis([0, 0, 1])  # s^2
print("<s^2, A_7> =", pair(f, adams_series(7, 10)), "= 49")
print("s/2 numerical?", to_e_basis([0, Fraction(1, 2)]) is not None)

# The canonical basis sequences f^(n): two-sided integer sequences whose
# first nonzero entry is n! d_n at index n.
print("f^(0) on [-3, 3]:", list(fseq(0, -3, 4, T, budget).values))
print("f^(1) on [-2, 2]:", list(fseq(1, -2, 3, T, budget).values))
f2 = fseq(2, -2, 5, T, budget)
print("f^(2) on [-2, 4]:", list(f2.values), " (entry at 2 is 2! d_2 =", dn_tilde(2), ")")

# Every interval of such a sequence lies in the unit-power lattice.
small = PrimeBudget.uniform([2, 3], 4)
vals = list(f2.values)
print("all 3-intervals in N_3:",
      all(interval_in_N(vals[k : k + 3], small) for k in range(len(vals) - 2)))

# Integer windows built from the basis decompose back uniquely.
bs = [rng.randint(-3, 3) for _ in range(6)]
window = assemble_TZ(bs, -2, 3, T, budget)
print("round trip", bs, "->", decompose_TZ(window, 2, T, budget))
