"""Bounded-exhaustive checks: every Z series with coefficients in
0..p^e - 1 at a small truncation T, against the brute-force span of unit
Adams series mod (p^e, x^(T+1)) (``oracles.span_enumerate``, no Howell
form and no Phi)."""

import itertools

import pytest

from ckops import PrimeBudget, TruncSeries, Z, adams_series, s_criterion, s_oracle, tower_member
from ckops.linalg import ModMatrix
from ckops.suites import _criterion_capped
from oracles import span_enumerate


# (p, e, T, members): members = p^(e(T+1)) / the lattice's index
@pytest.mark.parametrize("p,e,T,members", [
    (2, 2, 3, 16), (2, 2, 4, 64), (2, 3, 3, 128), (3, 1, 5, 81), (3, 2, 2, 243),
    (2, 1, 5, 8), (5, 1, 4, 625),
])
def test_every_series_against_the_unit_adams_span(p, e, T, members):
    # the oracle reads more unit Adams series, (1-x)^k with p not dividing
    # k < T + 1 + e + p^e, than the T + e that span the stable lattice;
    # where p^e | T + 1, s_oracle's window at n = e is the whole series, and
    # s_criterion capped at e (as the s-dual-route suite caps it) decides too
    q, D = p**e, T + 1
    units = [adams_series(k, T).coeffs for k in range(1, D + e + q) if k % p]
    span = span_enumerate(ModMatrix(q, units))
    assert len(span) == members
    budget = PrimeBudget((p,), (e,))
    whole_window = D % q == 0
    for v in itertools.product(range(q), repeat=D):
        G = TruncSeries(Z, T, v)
        want = v in span
        assert tower_member(G, 1, budget) == want, v
        if whole_window:
            assert s_oracle(G, p, e, T) == want, v
            assert _criterion_capped(s_criterion(G, primes=[p]), e) == want, v
