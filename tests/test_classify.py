import random
from fractions import Fraction

import pytest

from ckops import classify
from ckops import (
    N33_sequence,
    NotInGroup,
    PrecisionError,
    PrimeBudget,
    ProfiniteApprox,
    ProfiniteRing,
    Q,
    TruncSeries,
    adams_series,
    classical_approx,
    decompose_Qn_hat,
    in_Opnm_phi,
    in_Qn,
    in_Qnm,
    iter_partial,
    lg_series,
    rho_n,
    weighted_lg,
)
from ckops.suites import phi_inverse, random_membership_witness


def rand_int_series(rng, T):
    return TruncSeries(Q, T, [0] + [rng.randint(-9, 9) for _ in range(T)])


# -- membership -----------------------------------------------------------------


def test_in_Qn_integer_series_all_levels():
    rng = random.Random(1)
    G = rand_int_series(rng, 9)
    for n in (1, 2, 3, 4):
        assert in_Qn(G, n)


def test_in_Qn_lg_exactly_below_level():
    for r in (1, 2, 3):
        for n in (1, 2, 3, 4):
            assert in_Qn(lg_series(r, 9), n) == (r < n)


def test_in_Qn_half_x_fails():
    assert not in_Qn(TruncSeries(Q, 6, [0, Fraction(1, 2)]), 2)


def test_in_Qn_requires_zero_constant():
    with pytest.raises(NotInGroup):
        in_Qn(TruncSeries(Q, 4, [1, 1]), 2)


def test_in_Qnm_monomials():
    for m in range(1, 7):
        for n in range(1, m + 1):
            assert in_Qnm(TruncSeries.monomial(Q, 8, m), n, m)


def test_in_Qnm_x_at_m2_false():
    assert not in_Qnm(TruncSeries(Q, 6, [0, 1]), 1, 2)


def test_in_Qnm_m_below_n_collapses():
    # membership for m <= n is independent of m (v >= n always)
    rng = random.Random(2)
    G, expect = random_membership_witness(rng, 10, 3)
    vals = {m: in_Qnm(G, 3, m) for m in range(0, 4)}
    assert len(set(vals.values())) == 1
    assert vals[3] == in_Qn(G, 3)


def test_in_Qnm_truncation_below_n_is_precision_error():
    # partial^(n-1) G has no monomial below total degree n: nothing to check,
    # the same error as the Phi route
    G = TruncSeries(Q, 2, [0, Fraction(1, 2), Fraction(1, 3)])
    for n in (3, 4):
        for route in (lambda: in_Qnm(G, n, 3), lambda: in_Qn(G, n), lambda: in_Opnm_phi(G, n, 3)):
            with pytest.raises(PrecisionError, match=f"need truncation >= {n}, have 2"):
                route()
    with pytest.raises(PrecisionError, match="need truncation >= 1, have 0"):
        in_Qnm(TruncSeries(Q, 0, [0]), 1, 0)
    # the constant term is checked first, and at T = n the one monomial
    # 3! c x_1 x_2 x_3 of partial^2 (c x^3) is checked as before
    with pytest.raises(NotInGroup):
        in_Qnm(TruncSeries(Q, 2, [1, 0, 0]), 3, 3)
    assert not in_Qnm(TruncSeries(Q, 3, [0, 0, 0, Fraction(1, 12)]), 3, 3)
    assert in_Qnm(TruncSeries(Q, 3, [0, 0, 0, Fraction(1, 6)]), 3, 3)


def test_in_Opnm_adams_unit_minus_one(budget):
    ring = ProfiniteRing(budget)
    one = ProfiniteApprox.from_int(budget, 1)
    A = adams_series(11, 10).map_coeffs(lambda v: one * v, ring)
    proj = TruncSeries(ring, 10, [ring.zero()] + list(A.coeffs[1:]))
    for n in (1, 2, 3):
        assert in_Opnm_phi(proj, n, n)


def test_in_Opnm_integer_multiples_of_x():
    rng = random.Random(3)
    G = rand_int_series(rng, 10)
    for n in (1, 2, 3):
        assert in_Opnm_phi(G, n, n)


def test_in_Opnm_detects_phi_inverted_bomb():
    target = TruncSeries.monomial(Q, 10, 2, Fraction(1, 2))
    B = phi_inverse(phi_inverse(target)).truncate(10)
    assert not in_Opnm_phi(B, 2, 2)
    assert not in_Qnm(B, 2, 2)


def test_in_Qnm_computes_the_derivative_once(monkeypatch):
    calls = []

    def counting(G, m):
        calls.append(m)
        return iter_partial(G, m)

    monkeypatch.setattr(classify, "iter_partial", counting)
    assert in_Qnm(TruncSeries.monomial(Q, 8, 4), 3, 4)
    assert calls == [2]


def test_route_equivalence_sweep():
    # the two routes agree on random_membership_witness's domain, not beyond it
    rng = random.Random(4)
    for trial in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(n, n + 3)
        G, _ = random_membership_witness(rng, 12, n)
        assert in_Qnm(G, n, m) == in_Opnm_phi(G, n, m), (trial, n, m)


def test_derivative_group_lies_inside_phi_group():
    # in_Qnm True implies in_Opnm_phi True on unconstrained rational draws;
    # the converse fails, so the sweep must also meet a disagreement
    rng = random.Random(13)
    members = disagreements = 0
    for trial in range(300):
        n = rng.randint(1, 3)
        m = rng.randint(n, n + 2)
        T = rng.randint(n, 7)
        G = TruncSeries(Q, T, [0] + [rng.choice([0, 0, rng.randint(-4, 4), Fraction(
            rng.randint(-4, 4), rng.choice([2, 3, 4, 6, 8]))]) for _ in range(T)])
        d, p = in_Qnm(G, n, m), in_Opnm_phi(G, n, m)
        assert p or not d, (trial, n, m, G.to_json())
        members += d
        disagreements += d != p
    assert members and disagreements


@pytest.mark.parametrize("T, n, m, k, c", [(4, 3, 1, 4, Fraction(1, 8)), (3, 1, 1, 2, Fraction(1, 2))])
def test_routes_disagree_on_documented_repros(T, n, m, k, c):
    G = TruncSeries.monomial(Q, T, k, c)
    assert not in_Qnm(G, n, m)
    assert in_Opnm_phi(G, n, m)


def test_functoriality_of_inclusions():
    # a member of Q^{n,m} still passes the Q^{n+1,m} test (inclusion map)
    rng = random.Random(5)
    for trial in range(10):
        n = rng.randint(1, 3)
        G, expect = random_membership_witness(rng, 10, n)
        if in_Qnm(G, n, n):
            assert in_Qnm(G, n + 1, n)


def test_functoriality_crossing_level_zero():
    # crossing n = 0 applies the constant-killing projection first
    rng = random.Random(6)
    G = TruncSeries(Q, 10, [rng.randint(-9, 9) for _ in range(11)])
    assert in_Qn(G, 0)
    proj = TruncSeries(Q, 10, [0] + list(G.coeffs[1:]))
    for n in (1, 2, 3):
        assert in_Qn(proj, n)


# -- decomposition -----------------------------------------------------------------


def test_decompose_constructed(budget):
    G = lg_series(2, 12).scale(5) + TruncSeries(Q, 12, [0, 0, 0, 1])
    comps, rem = decompose_Qn_hat(G, 3, budget)
    by = {c.index: c for c in comps}
    assert (by[2].candidate - 5) % by[2].modulus == 0
    assert by[1].candidate % by[1].modulus == 0
    re = rem
    for c in comps:
        re = re + lg_series(c.index, 12).scale(c.candidate)
    assert re == G  # exact reassembly
    # remainder is x^3 plus the lg-tail bookkeeping; integral within budget
    for i, coeff in enumerate(rem.coeffs):
        for p in budget.primes:
            assert Fraction(coeff).denominator % p != 0


def test_decompose_integer_series_components_vanish(budget):
    rng = random.Random(6)
    G = rand_int_series(rng, 12)
    comps, rem = decompose_Qn_hat(G, 4, budget)
    assert all(c.candidate % c.modulus == 0 for c in comps)
    assert rem == G


def test_decompose_profinite_input(wide_budget):
    # a series with honestly profinite (hence budget-integral) coefficients
    # always has vanishing components: nonzero ones live in Qhat, which pure
    # residues cannot express (no nontrivial divisible elements)
    rng = random.Random(20)
    resid = {p: rng.randrange(p**12) for p in wide_budget.primes}
    c = ProfiniteApprox(wide_budget, resid)
    seq = N33_sequence(c, 2, 12)
    W = weighted_lg([c - x for x in seq], 2, 12)  # profinite coefficients
    W = TruncSeries(W.ring, 12, [W.ring.zero()] + list(W.coeffs[1:]))
    comps, rem = decompose_Qn_hat(W, 3)
    assert all(cc.candidate % cc.modulus == 0 for cc in comps)
    assert isinstance(rem.ring, ProfiniteRing)
    for a, b in zip(rem.coeffs, W.coeffs):
        assert a.eq_within(b)
    # seeded sweep: every component of a Zhat series is exactly 0 and the
    # remainder is the input, unless some coefficient lacks the digits a
    # congruence reads (PrecisionError); precisions run over 0..e
    outcomes = []
    for bud in (wide_budget, PrimeBudget((3, 2), (2, 3))):
        for _ in range(25):
            T, n = rng.randint(2, 12), rng.randint(2, 5)
            coeffs = []
            for _ in range(T + 1):
                full = rng.random() < 0.6
                prec = {p: e if full else rng.randint(0, e) for p, e in bud.full_prec.items()}
                coeffs.append(ProfiniteApprox(bud, {p: rng.randrange(p**e) for p, e in
                                                    bud.full_prec.items()}, prec))
            S = TruncSeries(ProfiniteRing(bud), T, coeffs)
            try:
                comps, rem = decompose_Qn_hat(S, n)
            except PrecisionError:
                outcomes.append(False)
                continue
            outcomes.append(True)
            assert [cc.candidate for cc in comps] == [0] * (n - 1)
            assert rem.trunc == T
            assert all(a.eq_within(b) for a, b in zip(rem.coeffs, S.coeffs))
    assert 10 <= sum(outcomes) <= len(outcomes) - 10


def test_decompose_weighted_sequence(wide_budget):
    rng = random.Random(7)
    resid = {p: rng.randrange(p**12) for p in wide_budget.primes}
    c = ProfiniteApprox(wide_budget, resid)
    seq = N33_sequence(c, 1, 12)
    W = weighted_lg(seq, 1, 12)
    comps, rem = decompose_Qn_hat(W, 2, wide_budget)
    comp = comps[0]
    for p, (k, r) in comp.residues.items():
        assert c.residue_mod(p, k) == r


def test_decompose_rejects_nonmember(budget):
    bad = TruncSeries(Q, 10, [0, Fraction(1, 2)])
    with pytest.raises((NotInGroup, ValueError)):
        decompose_Qn_hat(bad, 3, budget)


# -- rho_n --------------------------------------------------------------------------


def test_rho_integer_series_zero_classes(budget):
    rng = random.Random(8)
    classes = rho_n(rand_int_series(rng, 12), 4, budget)
    assert all(cl.is_zero and cl.value == 0 for cl in classes)


def test_rho_rational_multiple_zero_class(budget):
    rng = random.Random(9)
    G = lg_series(2, 12).scale(Fraction(1, 2)) + rand_int_series(rng, 12)
    by = {cl.index: cl for cl in rho_n(G, 4, budget)}
    assert by[2].is_zero and by[2].value == Fraction(1, 2)
    assert by[1].is_zero and by[3].is_zero


def test_rho_nonintegral_profinite_class(wide_budget):
    rng = random.Random(10)
    resid = {p: rng.randrange(p**12) for p in wide_budget.primes}
    c = ProfiniteApprox(wide_budget, resid)
    W = weighted_lg(N33_sequence(c, 1, 12), 1, 12)
    classes = rho_n(W, 2, wide_budget)
    assert not classes[0].is_zero
    assert classes[0].witness is not None


def test_rho_beyond_truncation_raises_like_decompose(budget):
    G = TruncSeries(Q, 4, [0, 1, 2])
    for n in (6, 7):  # components T+1 and T+2 have an empty window
        with pytest.raises(PrecisionError) as rho_exc:
            rho_n(G, n, budget)
        with pytest.raises(PrecisionError) as dec_exc:
            decompose_Qn_hat(G, n, budget)
        assert str(rho_exc.value) == str(dec_exc.value)
    # classical_approx skips them instead: lg_r vanishes mod x^(T+1) for r > T
    assert classical_approx(G, 6, 2) == classical_approx(G, 5, 2)


# -- N33 ---------------------------------------------------------------------------


def test_N33_integer_target(wide_budget):
    c = ProfiniteApprox.from_int(wide_budget, 7)
    seq = N33_sequence(c, 3, 12)
    for i, ci in enumerate(seq, start=1):
        assert (ci - 7) % i == 0


def test_N33_congruences_random(wide_budget):
    rng = random.Random(11)
    resid = {p: rng.randrange(p**12) for p in wide_budget.primes}
    c = ProfiniteApprox(wide_budget, resid)
    seq = N33_sequence(c, 3, 12)
    for i, ci in enumerate(seq, start=1):
        for p in wide_budget.primes:
            v, q = 0, 1
            while i % (q * p) == 0:
                q *= p
                v += 1
            if v:
                assert (c.residue_mod(p, v) - ci) % p**v == 0


def test_N33_weighted_integrality(wide_budget):
    rng = random.Random(12)
    resid = {p: rng.randrange(p**12) for p in wide_budget.primes}
    c = ProfiniteApprox(wide_budget, resid)
    seq = N33_sequence(c, 3, 12)
    diff = [c - x for x in seq]
    for k in (1, 2, 3):
        weighted_lg(diff, k, 12)  # raises PrecisionError if non-integral


# -- polynomial approximation --------------------------------------------------------


def test_classical_approx_integer_polynomial_fixed(budget):
    rng = random.Random(13)
    G = rand_int_series(rng, 12)
    Ga = classical_approx(G, 3, 6)
    assert list(Ga.coeffs) == [int(x) for x in G.coeffs[:7]]


def test_classical_approx_weighted_target(wide_budget):
    rng = random.Random(14)
    resid = {p: rng.randrange(p**12) for p in wide_budget.primes}
    c = ProfiniteApprox(wide_budget, resid)
    W = weighted_lg(N33_sequence(c, 1, 12), 1, 12)
    d = 6
    Gp = classical_approx(W, 2, d)
    assert all(isinstance(x, int) for x in Gp.coeffs)
    # defining property: W - Gp lies in Q lg_1 + x^(d+1) Q[[x]]
    diff = W - TruncSeries(Q, 12, list(Gp.coeffs))
    lg1 = lg_series(1, 12)
    q = Fraction(diff.coeffs[1]) / lg1.coeffs[1]
    tail = diff - lg1.scale(q)
    assert all(tail.coeffs[i] == 0 for i in range(d + 1))
