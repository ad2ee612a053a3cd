# Integrality filtration of rational series: which one-variable series
# define operations at level n, and how the profinite components split off.
#
# A series G is in the level-n group when its (n-1)-st formal-group
# derivative has integral coefficients.  The kernel elements lg_r slip in
# for r < n; genuinely profinite components show up through integer
# sequences c~ with c_i = c (mod i).

import random
from fractions import Fraction

from ckops import (
    N33_sequence,
    PrimeBudget,
    ProfiniteApprox,
    Q,
    TruncSeries,
    decompose_Qn_hat,
    in_Opnm_phi,
    in_Qn,
    lg_series,
    rho_n,
    weighted_lg,
)

T = 12
budget = PrimeBudget.uniform([2, 3, 5, 7, 11], 12)
rng = random.Random(0)

# Integer series pass at every level; lg_r passes exactly below level r.
G_int = TruncSeries(Q, T, [0] + [rng.randint(-9, 9) for _ in range(T)])
print("integer series in level 4:", in_Qn(G_int, 4))
print("lg_2 in level 3:", in_Qn(lg_series(2, T), 3), " in level 2:", in_Qn(lg_series(2, T), 2))

# The Phi route, through powers of (x-1) d/dx, tests a group containing
# this one; the two agree on integer series.
print("Phi route agrees:", in_Opnm_phi(G_int, 3, 3) == in_Qn(G_int, 3))

# A profinite number c is realized inside a rational series by an integer
# sequence c~ with c_i = c (mod i); the weighted logarithm of c~ carries
# the component c.
c = ProfiniteApprox(budget, {p: rng.randrange(p**12) for p in budget.primes})
seq = N33_sequence(c, 1, T)
W = weighted_lg(seq, 1, T)
components, remainder = decompose_Qn_hat(W, 2, budget)
comp = components[0]
print("extracted component residues match c:",
      all(c.residue_mod(p, k) == r for p, (k, r) in comp.residues.items()))
print("component determined modulo", comp.modulus)

# rho classifies components modulo Q: integer series give the zero class,
# a genuinely profinite target gives a nonzero class with a witness.
zero_classes = rho_n(G_int, 4, budget)
print("integer series classes all zero:", all(cl.is_zero for cl in zero_classes))
half = lg_series(2, T).scale(Fraction(1, 2)) + G_int
print("rational multiple is the zero class:", rho_n(half, 3, budget)[-1].is_zero)
print("profinite target class zero?", rho_n(W, 2, budget)[0].is_zero,
      "witness:", rho_n(W, 2, budget)[0].witness)
