"""Acceptance criteria, one test per criterion, each printing a pass line.

Every expected value is exact (zero tolerance); runtime limits from the
criteria are asserted where stated.
"""

import random
import time
from fractions import Fraction

from ckops import (
    PrimeBudget,
    ProfiniteApprox,
    ProfiniteRing,
    Q,
    TruncSeries,
    Z,
    a_min,
    adams_series,
    b_map,
    compose_op,
    construct_Fn,
    decompose_S0,
    decompose_TZ,
    desuspend,
    dn,
    fseq,
    integrate_symmetric,
    iter_partial,
    lg_series,
    pair,
    phi,
    s_criterion,
    s_oracle,
    stable_mult_check,
    tower_member,
    twisted_adams,
    vp,
)
from ckops.kgr import NumericalPoly, assemble_TZ
from ckops.multisym import aformula_check
from ckops.series import Composer
from oracles import twisted_rule, vdm_value


def _report(num, label, t0, limit=None):
    dt = time.time() - t0
    if limit is not None:
        assert dt < limit, f"criterion {num} exceeded {limit}s ({dt:.1f}s)"
    print(f"[PASS] criterion {num}: {label} ({dt:.1f}s)")


def test_criterion_01_dn_table():
    t0 = time.time()
    assert [dn(n).value for n in range(8)] == [1, 2, 12, 8, 240, 96, 4032, 1152]
    for n in range(13):
        for p in (2, 3, 5, 7, 11, 13):
            num = vdm_value(a_min(p, n + 1))
            den = vdm_value(a_min(p, n)) if n > 0 else 1
            q = Fraction(num, den)
            vpq = vp(q.numerator, p) - vp(q.denominator, p)
            assert vpq == dn(n).per_prime.get(p, 0), (n, p)
    _report(1, "d_n table and Van der Monde dual route (n<=12, p<=13)", t0, limit=5)


def test_criterion_02_idempotents():
    t0 = time.time()
    T = 16
    lgs = [lg_series(r, T) for r in range(T + 1)]
    for n in range(T + 1):
        comp = Composer(lgs[n])
        for m in range(T + 1):
            got = comp.compose(lgs[m])
            want = lgs[n] if n == m else TruncSeries.zero(Q, T)
            assert got == want, (n, m)
    total = TruncSeries.zero(Q, T)
    for r in range(T + 1):
        total = total + lgs[r]
    assert total == TruncSeries(Q, T, [1, -1])
    _report(2, "lg idempotents and partition of identity at T=16", t0, limit=10)


def test_criterion_03_adams_suite():
    t0 = time.time()
    T = 12
    for k in range(-3, 8):
        comp = Composer(adams_series(k, T))
        for m in range(-3, 8):
            assert comp.compose(adams_series(m, T)) == adams_series(k * m, T), (k, m)
    for m in range(-3, 8):
        w = b_map(adams_series(m, T), T)
        assert all(w[i] == m**i for i in range(13)), m
    rng = random.Random(1)
    for _ in range(10):
        G = TruncSeries(Z, T, [rng.randint(-30, 30) for _ in range(T + 1)])
        w = b_map(G, T)
        for p in (3, 5, 7):
            for i in range(1, T + 1):
                for j in range(i, T + 1, p - 1):
                    assert (w[i] - w[j]) % p == 0
    _report(3, "Adams composition, b-powers, mod-p congruences", t0, limit=10)


def test_criterion_04_aformula():
    t0 = time.time()
    rng = random.Random(7)
    T = 8
    for trial in range(50):
        n = rng.randint(1, 3)
        G = TruncSeries(
            Q, T, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(T + 1)]
        )
        assert aformula_check(G, n), (trial, n)
    _report(4, "derivative-reduction identity on 50 random series", t0, limit=30)


def test_criterion_05_integration_round_trip():
    t0 = time.time()
    rng = random.Random(3)
    for trial in range(30):
        n = rng.randint(2, 4)
        T = rng.choice([8, 9, 10])
        L = TruncSeries(
            Q, T, [0] + [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(T)]
        )
        D = iter_partial(L, n - 1)
        L2 = integrate_symmetric(D)
        assert iter_partial(L2, n - 1) == D, (trial, n)
    _report(5, "symmetric integration round trip, 30 random series", t0)


def test_criterion_06_dual_route_membership():
    t0 = time.time()
    rng = random.Random(11)
    agreements = 0
    unit_nodes = [1, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 49]  # coprime to 30
    while agreements < 200:
        p = rng.choice([2, 3, 5])
        e = rng.randint(1, 3)
        T = rng.randint(6, 12)
        G = TruncSeries.zero(Z, T)
        for _ in range(rng.randint(1, 3)):
            G = G + adams_series(rng.choice(unit_nodes), T).scale(rng.randint(-9, 9))
        if rng.random() < 0.5:
            k = rng.randint(0, T)
            G = G + TruncSeries.monomial(Z, T, k, rng.randint(1, p**e - 1))
        rep = s_criterion(G, primes=[p])
        want = rep.ok or rep.witness[1] > e
        got = s_oracle(G, p, e, T)
        assert got == want, (agreements, p, e, T, rep.witness)
        agreements += 1
    _report(6, "criterion vs image-lattice oracle, 200 cases, 100% agreement", t0, limit=120)


def test_criterion_07_basis_construction():
    t0 = time.time()
    budget = PrimeBudget.uniform([2, 3, 5, 7], 8)
    T = 16
    family = [construct_Fn(n, T, budget) for n in range(T + 1)]
    for n in range(6):
        F = family[n]
        assert all(F.int_coeffs[i] == 0 for i in range(n)), n
        assert F.int_coeffs[n] == dn(n).value, n
        for i, c in enumerate(F.series.coeffs):
            assert c.eq_within(F.int_coeffs[i]), (n, i)
        assert s_criterion(F.series).ok, n
    rng = random.Random(5)
    for trial in range(5):
        coeffs = [rng.randint(-9, 9) for _ in range(6)]
        G = TruncSeries(Z, T, [0] * (T + 1))
        for k, a in enumerate(coeffs):
            if a:
                G = G + TruncSeries(Z, T, list(family[k].int_coeffs)).scale(a)
        got = decompose_S0(G, budget, family=family)
        assert got == coeffs + [0] * (T + 1 - 6), trial
    _report(7, "F_n construction at T=16/prec 8 and S_0 decomposition", t0)


def test_criterion_08_stable_desuspension():
    t0 = time.time()
    T = 10
    for k in (-3, -1, 2, 5, 7):
        A = adams_series(k, T)
        assert phi(A) == A.truncate(T - 1).scale(k), k
        assert desuspend(A, 0) == A.truncate(T - 1).scale(k), k
        proj = TruncSeries(Z, T, [0] + list(A.coeffs[1:]))
        assert desuspend(proj, 2) == proj.truncate(T - 1).scale(k), k
    budget = PrimeBudget.uniform([2, 3, 5, 7], 8)
    ring = ProfiniteRing(budget)
    for n in range(5):
        d = dn(n).value
        for mult in (d, 2 * d):
            G = TruncSeries(ring, n, [ring.zero()] * n + [ring.coerce(mult)])
            assert tower_member(G, n + 1, budget), (n, mult)
        for bad in sorted({1, d // 2, d // 3} - {0}):
            if bad % d == 0:
                continue
            G = TruncSeries(ring, n, [ring.zero()] * n + [ring.coerce(bad)])
            assert not tower_member(G, n + 1, budget), (n, bad)
    _report(8, "Phi eigenvalues, desuspension formula, monomial tower test", t0)


def test_criterion_09_graded_k_theory():
    t0 = time.time()
    rng = random.Random(2)
    for _ in range(40):
        deg = rng.randint(0, 8)
        f = NumericalPoly(tuple(rng.randint(-6, 6) for _ in range(deg + 1)))
        m = rng.randint(-10, 10)
        assert pair(f, adams_series(m, 10)) == f(m)
    budget = PrimeBudget.uniform([2, 3, 5, 7, 11, 13], 8)
    T = 16
    assert list(fseq(0, -4, 5, T, budget).values) == [1] * 9
    assert list(fseq(1, -4, 5, T, budget).values) == [0, 2, 0, 2, 0, 2, 0, 2, 0]
    for m in range(4):
        for _ in range(3):
            bs = [rng.randint(-4, 4) for _ in range(2 * m + 2)]
            win = assemble_TZ(bs, -m, m + 1, T, budget)
            assert decompose_TZ(win, m, T, budget) == bs, (m, bs)
    _report(9, "co-operation pairing, f^(0)/f^(1) windows, T_Z round trips", t0)


def test_criterion_10_multiplicative_suite():
    t0 = time.time()
    budget = PrimeBudget.uniform([2, 3, 5, 7], 16)
    T = 12
    rng = random.Random(9)
    checked = 0
    while checked < 100:
        # valuations kept small enough that any witness fits inside T
        bv = rng.choice([1, 2, 3, 4, 5, 6, 7, 9, 11, 12, 13])
        cv = rng.choice([1, 2, 3, 5, 6, 7, 11, 13, 14, 15, 21, 35])
        ok = True
        for p in budget.primes:
            # a nonzero b with non-unit c has its witness at n = p^(v_p(b)+1)
            if cv % p == 0 and p ** (vp(bv, p) + 1) > T:
                ok = False
        if not ok:
            continue
        b, c = ProfiniteApprox.from_int(budget, bv), ProfiniteApprox.from_int(budget, cv)
        out = twisted_adams(b, c, T)
        assert out.integral == twisted_rule(b, c), (checked, bv, cv, out.witness)
        checked += 1
    for _ in range(5):
        b1, c1, b2, c2 = (rng.randrange(1, 300) for _ in range(4))
        assert compose_op(adams_series(b1 * c1, 10), adams_series(b2 * c2, 10)) == adams_series(
            b1 * c1 * b2 * c2, 10
        )
    for cv in (1, -1, 11, 13, 121):
        assert stable_mult_check(ProfiniteApprox.from_int(budget, cv), 8), cv
    for cv in (0, 2, 3, 6, 10, 21):
        assert not stable_mult_check(ProfiniteApprox.from_int(budget, cv), 8), cv
    _report(10, "twisted-Adams integrality rule, composition relation, units", t0)
