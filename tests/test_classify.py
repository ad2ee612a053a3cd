import hashlib
import json
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
    Z,
    adams_series,
    classical_approx,
    decompose_Qn_hat,
    in_Opnm_phi,
    in_Qn,
    in_Qnm,
    iter_partial,
    lg_series,
    phi,
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


def test_phi_coefficients_are_two_derivative_coefficients():
    # the containment lemma of in_Qnm's docstring: for 0 <= d <= T - n,
    # [x^d] Phi^n G = (-1)^n ((d+1) c(1..1, d+1) - d c(1..1, d)), with
    # c(k) = [x^k] partial^(n-1) G and n - 1 ones, over Q and Z
    rng = random.Random(35)
    cases = [(T, T) for T in range(1, 8)] + [(T, rng.randint(1, min(T, 5)))
                                             for T in (rng.randint(1, 10) for _ in range(60))]
    checked = 0
    for i, (T, n) in enumerate(cases):
        ring = (Q, Z)[i % 2]
        G = TruncSeries(ring, T, [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 8]))
                                  if ring is Q else rng.randint(-30, 30) for _ in range(T + 1)])
        D, H = iter_partial(G, n - 1), phi(G, n)
        ones = (1,) * (n - 1)
        for d in range(T - n + 1):
            c_next, c_d = D.get(ones + (d + 1,)), D.get(ones + (d,))
            assert H.coeffs[d] == (-1) ** n * ((d + 1) * c_next - d * c_d), (T, n, d, G.to_json())
            checked += 1
    assert checked > 200


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


def _cc(*fields):
    return classify.ComponentClass(*fields)


@pytest.mark.parametrize("coeffs, n, want", [
    # components 1 and 2 have no reconstruction: a zero candidate cannot
    # explain component 2's obstruction at 2; component 3's window 3 holds
    # no power of the budget primes 5 and 7
    ([0, Fraction(2, 9), Fraction(-9, 8), -2, -4, Fraction(1, 4)], 4,
     [_cc(1, False, None, (2, 2, 1), {2: (2, 1), 3: (1, 0), 5: (1, 0)}),
      _cc(2, False, None, (3, 1, 0), {3: (1, 0)}),
      _cc(3, False, None, (2, 1, 1), {2: (1, 1), 3: (1, 0)})]),
    # window 1 holds no budget prime power: the zero class, with no residue
    ([0, -3], 2, [_cc(1, True, Fraction(0), None, {})]),
    # component 2 reconstructs a candidate the congruence at i = 2 refutes:
    # the witness names that b_i
    ([0, Fraction(3, 2), Fraction(-1, 2), 6, Fraction(-8, 3), Fraction(-9, 4), 3], 3,
     [_cc(1, False, None, (3, 1, 0), {3: (1, 0), 5: (1, 0)}),
      _cc(2, False, None, (2, 1, "38"), {2: (2, 3), 3: (1, 1), 5: (1, 0)})]),
    # component 2 has only an obstruction: the witness is its valuation at
    # the first budget prime
    ([0, Fraction(-1, 3), Fraction(-8, 5), Fraction(5, 4)], 3,
     [_cc(1, True, Fraction(0), None, {2: (1, 0), 3: (1, 0)}),
      _cc(2, False, None, (2, -1, None), {})]),
])
def test_rho_branches(budget, coeffs, n, want):
    assert rho_n(TruncSeries(Q, len(coeffs) - 1, coeffs), n, budget) == want


@pytest.mark.parametrize("call, exc, msg", [
    (lambda b: decompose_Qn_hat(TruncSeries(Q, 4, [0, 1]), 2), ValueError,
     "a prime budget is required for rational input"),
    (lambda b: decompose_Qn_hat(TruncSeries(Q, 4, [0, 1]), 0, b), ValueError, "n must be >= 1"),
    (lambda b: decompose_Qn_hat(TruncSeries(Q, 4, [0, Fraction(1, 2)]), 1, b), NotInGroup,
     "remainder coefficient 1 = 1/2 is not integral at p=2"),
    (lambda b: classical_approx(TruncSeries(Q, 6, [0, Fraction(3, 2), Fraction(-1, 2), 6, Fraction(-8, 3),
                                                   Fraction(-9, 4), 3]), 3, 4), PrecisionError,
     "component 2 needs c mod 2^3, window 5 only determines 2^2"),
    (lambda b: classical_approx(TruncSeries(Q, 7, [0, -5, Fraction(4, 3), Fraction(-5, 8), Fraction(-4, 9),
                                                   Fraction(5, 8), Fraction(1, 8), Fraction(-1, 3)]), 3, 3),
     NotInGroup, "component 2 has a rational obstruction at p=2"),
    (lambda b: classical_approx(TruncSeries(Q, 4, [0, Fraction(1, 2)]), 1, 2), NotInGroup,
     "truncation coefficient 1 = 1/2 is not integral; the input is outside the supported generator structure"),
    (lambda b: N33_sequence(ProfiniteApprox.from_int(b, 7), 0, 4), ValueError, "r must be >= 1"),
    (lambda b: N33_sequence(ProfiniteApprox.from_int(b, 7), 2, 11), PrecisionError,
     "prime 11 of modulus 11 is outside the budget"),
])
def test_decomposition_rejections(budget, call, exc, msg):
    with pytest.raises(exc) as info:
        call(budget)
    assert str(info.value) == msg


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


# -- seeded sweep --------------------------------------------------------------------

_SWEEP_BUDGET = PrimeBudget.uniform([2, 3, 5, 7], 8)
_SWEEP_ZHAT = ProfiniteRing(PrimeBudget.uniform([2, 3, 5], 4))
# SHA-256 of the sweep's JSON lines; a change to any verdict, value or
# exception of the six routes below changes it
_SWEEP_SHA256 = "0ff80f385336509cbdc9897babc96d2aaa26ca52e525934dfa1e5008c12e4c45"


def _sweep_value(rng, ring):
    """A coefficient of the named ring: a small rational, an integer, or a
    Zhat value holding all, some or none of the budget's digits."""
    if ring == "Q":
        return Fraction(rng.randint(-9, 9), rng.choice([1] * 12 + [2, 3, 4, 5, 8, 9]))
    if ring == "Z":
        return rng.randint(-30, 30)
    budget = _SWEEP_ZHAT.budget
    prec = {p: e if rng.random() < 0.7 else rng.randint(0, e) for p, e in budget.full_prec.items()}
    return ProfiniteApprox(budget, {p: rng.randrange(p**e) for p, e in budget.full_prec.items()}, prec)


def _sweep_series(rng, ring, T, n):
    """G over Q, Z or Zhat, usually with a zero constant term; over Q
    perhaps plus rational lg_r with r < n."""
    R = {"Q": Q, "Z": Z, "Zhat": _SWEEP_ZHAT}[ring]
    a0 = _sweep_value(rng, ring) if rng.random() < 0.15 else R.zero()
    G = TruncSeries(R, T, [a0] + [_sweep_value(rng, ring) for _ in range(T)])
    if ring == "Q":
        for r in range(1, min(n, T + 1)):
            if rng.random() < 0.5:
                G = G + lg_series(r, T).scale(Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
    return G


def _sweep_json(x):
    if isinstance(x, (TruncSeries, ProfiniteApprox)):
        return x.to_json()
    if isinstance(x, (classify.Component, classify.ComponentClass)):
        return [type(x).__name__, *x._fields()]
    return str(x)  # a Fraction


def _sweep_lines():
    rng = random.Random(34)
    budget = _SWEEP_BUDGET
    lines = []

    def record(name, call, *args):
        try:
            out = call(*args)
        except Exception as exc:
            out = [type(exc).__name__, str(exc)]
        lines.append(json.dumps([name, out], default=_sweep_json, sort_keys=True))

    for trial in range(400):
        ring = ("Q", "Q", "Z", "Zhat")[trial % 4]
        T, n = rng.randint(1, 7), rng.randint(0, 4)
        G = _sweep_series(rng, ring, T, n)
        m = rng.randint(n - 2, n + 2)
        record("in_Qnm", in_Qnm, G, n, m)
        record("in_Opnm_phi", in_Opnm_phi, G, n, m)
        record("rho_n", rho_n, G, n, budget)
        record("decompose_Qn_hat", decompose_Qn_hat, G, n, budget)
        record("classical_approx", classical_approx, G, n, rng.randint(0, T))
    for _ in range(30):
        c = ProfiniteApprox(budget, {p: rng.randrange(p**e) for p, e in budget.full_prec.items()})
        record("N33_sequence", N33_sequence, c, rng.randint(0, 3), rng.randint(1, 12))
    return lines


def test_classify_sweep_matches_pinned_hash():
    lines = _sweep_lines()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _SWEEP_SHA256, digest
