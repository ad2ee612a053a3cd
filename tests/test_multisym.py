import random
from fractions import Fraction
from itertools import permutations

import pytest

from ckops import (
    MultiSeries,
    NotIntegrable,
    PrecisionError,
    PrimeBudget,
    ProfiniteApprox,
    ProfiniteRing,
    Q,
    TruncSeries,
    Z,
    aformula_check,
    adams_series,
    b_map,
    in_Opnm_phi,
    in_Qn,
    in_Qnm,
    integrate_symmetric,
    is_double_symmetric,
    is_symmetric,
    iter_partial,
    lg_series,
    phi,
    star_sum,
)
from ckops import multisym
from ckops.multisym import subst_first
from oracles import integer_coefficients


def univ_in_var(ts, var, nvars):
    M = MultiSeries(ts.ring, nvars, ts.trunc)
    for i, c in enumerate(ts.coeffs):
        if not ts.ring.is_zero(c):
            key = [0] * nvars
            key[var] = i
            M.coeffs[tuple(key)] = c
    return M


def rand_series(rng, T, dens=(1, 2, 3)):
    return TruncSeries(
        Q, T, [Fraction(rng.randint(-5, 5), rng.choice(dens)) for _ in range(T + 1)]
    )


# -- star sums -----------------------------------------------------------------


def test_star_sum_single():
    s = star_sum([0], 2, 5)
    assert s.coeffs == {(1, 0): Fraction(1)}


def test_star_sum_pair_multiplicative():
    s = star_sum([0, 1], 2, 5)
    assert s.coeffs == {(1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(-1)}


def test_star_sum_empty():
    assert star_sum([], 2, 5).is_zero()


# -- partial derivative ----------------------------------------------------------


def test_partial_of_x():
    D = iter_partial(TruncSeries(Q, 6, [0, 1]), 1)
    assert D.coeffs == {(1, 1): Fraction(-1)}


def test_partial_kills_lg1():
    assert iter_partial(lg_series(1, 9), 1).is_zero()


def test_partial0_convention():
    G0 = iter_partial(TruncSeries(Q, 4, [5, 1, 2]), 0)
    assert G0.coeffs == {(1,): Fraction(1), (2,): Fraction(2)}


def _partial_by_definition(M):
    """Oracle for iter_partial(G, 1): the four substitutions
    G(x1*x2, x3, ...) - G(x1, x3, ...) - G(x2, x3, ...) + G(0, x3, ...)."""
    n = M.nvars + 1
    tail = list(range(2, n))

    def at(positions):
        return subst_first(M, star_sum(positions, n, M.trunc, M.ring), n, tail)

    return at([0, 1]) - at([0]) - at([1]) + at([])


def _x1_free_part(M):
    """M(0, x_2, ..., x_n): M with the zero series substituted for x_1."""
    n = M.nvars
    return subst_first(M, MultiSeries(M.ring, n, M.trunc), n, list(range(1, n)))


def _exact(M):
    """Coefficients with profinite values as residues and precisions, so that
    equality is exact rather than within precision."""
    return {k: v.to_json() if isinstance(v, ProfiniteApprox) else v for k, v in M.coeffs.items()}


def _random_multi(rng, budget, blind=False):
    """A 1-3 variable series over Q, Z or Zhat; with blind, each profinite
    value has a random precision per prime, 0 included."""
    ring = rng.choice([Q, Z, ProfiniteRing(budget)])
    nvars = rng.randint(1, 3)
    T = rng.randint(3, 6)
    coeffs = {}
    for _ in range(rng.randint(1, 5)):
        key = tuple(rng.randint(0, 3) for _ in range(nvars))
        if ring == Q:
            coeffs[key] = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
        elif ring == Z:
            coeffs[key] = rng.randint(-5, 5)
        else:
            prec = {2: rng.randint(0, 4), 3: rng.randint(0, 4)} if blind else None
            coeffs[key] = ProfiniteApprox(budget, {2: rng.randrange(16), 3: rng.randrange(81)}, prec)
    # a zero without digits at some prime is unknown, which MultiSeries
    # rejects (test_multiseries_unknown_coefficient_raises): leave it out
    unknown = [k for k, v in coeffs.items()
               if isinstance(v, ProfiniteApprox) and v.eq_within(0) and 0 in v.prec.values()]
    for k in unknown:
        del coeffs[k]
    return MultiSeries(ring, nvars, T, coeffs)


def test_partial_derivative_matches_definition():
    rng = random.Random(10)
    budget = PrimeBudget.uniform([2, 3], 4)
    for trial in range(30):
        M = _random_multi(rng, budget)
        assert _exact(iter_partial(M, 1)) == _exact(_partial_by_definition(M)), trial


def test_partial0_matches_definition():
    # iter_partial(M, 0) keeps the monomials with a positive x_1 exponent;
    # its oracle is the definition M = iter_partial(M, 0) + M(0, x_2, ...).
    # The two parts share no monomial, so no value cancels: M - M(0, ...)
    # would cancel a coefficient without digits into an unknown zero.
    rng = random.Random(11)
    budget = PrimeBudget.uniform([2, 3], 4)
    blind = 0
    for trial in range(60):
        M = _random_multi(rng, budget, blind=True)
        blind += any(0 in v.prec.values() for v in M.coeffs.values() if isinstance(v, ProfiniteApprox))
        got = iter_partial(M, 0)
        assert (got.nvars, got.trunc) == (M.nvars, M.trunc), trial
        assert _exact(got + _x1_free_part(M)) == _exact(M), trial
    assert blind > 0


# -- iterated partials -------------------------------------------------------------


def test_coefficient_without_digits_is_unknown_not_dropped():
    # x^1 carries no digit at p = 2: in_Qnm must not read it as zero
    budget = PrimeBudget.uniform([2], 1)
    ring = ProfiniteRing(budget)
    zero = ProfiniteApprox(budget, {2: 0})
    blind = ProfiniteApprox(budget, {2: 0}, {2: 0})
    G = TruncSeries(ring, 3, [zero, blind, zero, zero])
    with pytest.raises(PrecisionError, match="coefficient 1 has no digits at p=2"):
        in_Qnm(G, 1, 3)
    with pytest.raises(PrecisionError, match="coefficient 1 has no digits at p=2"):
        iter_partial(G, 1)
    # zeros known to one digit are still zeros
    assert iter_partial(TruncSeries(ring, 3, [zero] * 4), 1).coeffs == {}


def test_iter_partial_keeps_the_digits_of_a_low_precision_product():
    # G = x + a2 x^2 at budget 2^4, a2 = 2 known mod 4: [x1 x2] partial G =
    # -1 + 2 a2 = 3 mod 8.  The product 2 a2 is 0 mod 2^2, a zero known to
    # two digits; read as an exact 0 it gave 15 mod 2^4
    B = PrimeBudget.uniform([2], 4)
    R = ProfiniteRing(B)
    D = iter_partial(TruncSeries(R, 2, [0, 1, ProfiniteApprox(B, {2: 2}, {2: 2})]), 1)
    assert {k: v.to_json() for k, v in D.coeffs.items()} == {(1, 1): {"primes": [[2, 2, 3]]}}


def test_multiseries_unknown_coefficient_raises():
    # a zero without digits at p = 2 is unknown: the constructor, +/-, scale
    # and * raise instead of pruning it, as TruncSeries does
    B = PrimeBudget.uniform([2, 3], 4)
    R = ProfiniteRing(B)
    blind_zero = ProfiniteApprox(B, {2: 0, 3: 0}, {2: 0, 3: 4})
    with pytest.raises(PrecisionError, match=r"coefficient \(1, 0\) has no digits at p=2"):
        MultiSeries(R, 2, 3, {(1, 0): blind_zero})
    M = MultiSeries(R, 2, 3, {(1, 0): ProfiniteApprox(B, {2: 0, 3: 5}, {2: 0, 3: 4})})
    assert list(M.coeffs) == [(1, 0)]
    with pytest.raises(PrecisionError, match="no digits at p=2"):
        M - M
    with pytest.raises(PrecisionError, match="no digits at p=2"):
        M == M
    with pytest.raises(PrecisionError, match="no digits at p=2"):
        M.scale(81)
    with pytest.raises(PrecisionError, match=r"coefficient \(1, 1\) has no digits at p=2"):
        M * MultiSeries(R, 2, 3, {(0, 1): 81})
    # a zero known at every prime is zero; known to fewer digits than the
    # budget at p = 2, it is kept, and a full-precision zero is pruned
    low = MultiSeries(R, 2, 3, {(1, 0): ProfiniteApprox(B, {2: 0, 3: 0}, {2: 1, 3: 4})})
    assert low.is_zero() and list(low.coeffs) == [(1, 0)] and low.total_valuation() is None
    assert MultiSeries(R, 2, 3, {(1, 0): ProfiniteApprox(B, {2: 0, 3: 0})}).coeffs == {}


def test_subst_first_names_an_unknown_zero_by_its_key():
    # the packed chain prunes a product and a colliding sum as the per-step
    # MultiSeries did, and names an unknown zero by its exponent tuple
    B = PrimeBudget.uniform([2, 3], 2)
    R = ProfiniteRing(B)
    a = ProfiniteApprox(B, {2: 0, 3: 1}, {2: 0, 3: 1})
    G = MultiSeries(R, 1, 3, {(1,): a})
    with pytest.raises(PrecisionError, match=r"^coefficient \(1, 1\) has no digits at p=2"):
        subst_first(G, MultiSeries(R, 2, 3, {(1, 1): 3}), 2, [])
    # G(x, x) with G = a x_1 - a x_2: the sum a - a at (1,) is unknown
    G = MultiSeries(R, 2, 3, {(1, 0): a, (0, 1): -a})
    with pytest.raises(PrecisionError, match=r"^coefficient \(1,\) has no digits at p=2"):
        subst_first(G, MultiSeries(R, 1, 3, {(1,): 1}), 1, [0])
    # with a digit at p = 2 the same sum is a known zero, but known to one
    # digit of the budget's two at each prime, so it is kept as it is
    b = ProfiniteApprox(B, {2: 0, 3: 1}, {2: 1, 3: 1})
    G = MultiSeries(R, 2, 3, {(1, 0): b, (0, 1): -b, (2, 0): b})
    S = subst_first(G, MultiSeries(R, 1, 3, {(1,): 1}), 1, [0])
    assert {k: v.to_json() for k, v in S.coeffs.items()} == {
        (1,): {"primes": [[2, 1, 0], [3, 1, 0]]}, (2,): b.to_json()}
    assert S.total_valuation() == 2


def test_multiseries_eq_needs_equal_ring_arity_and_truncation():
    # as TruncSeries.__eq__: a mismatch is unequal, not a comparison at the
    # lesser truncation or an incompatible-operands error
    low = MultiSeries(Q, 1, 3, {(1,): 1})
    assert low != MultiSeries(Q, 1, 5, {(1,): 1, (4,): 7})
    assert low != MultiSeries(Q, 1, 5, {(1,): 1})
    assert low != MultiSeries(Q, 2, 3, {(1, 0): 1})
    assert low != MultiSeries(Z, 1, 3, {(1,): 1})
    assert MultiSeries(Z, 1, 3, {(1,): 1}) != low
    assert low == MultiSeries(Q, 1, 3, {(1,): 1, (4,): 7})
    assert TruncSeries(Q, 3, [0, 1]) != TruncSeries(Q, 5, [0, 1, 0, 0, 7])


def test_multiseries_mul_rejects_incompatible_operands():
    # as + and -: a product of these would drop the third variable or put
    # 3/2 into a Z series
    with pytest.raises(ValueError, match="incompatible operands"):
        MultiSeries(Q, 2, 4, {(1, 0): 1}) * MultiSeries(Q, 3, 4, {(0, 1, 1): 1})
    with pytest.raises(ValueError, match="incompatible operands"):
        MultiSeries(Z, 1, 4, {(1,): 3}) * MultiSeries(Q, 1, 4, {(1,): Fraction(1, 2)})
    with pytest.raises(ValueError, match="incompatible operands"):
        MultiSeries(Q, 1, 4, {(1,): Fraction(1, 2)}) * MultiSeries(Z, 1, 4, {(1,): 3})


def test_multiseries_scale_keeps_values_in_the_ring():
    # a scaled value enters through the constructor like any other, so 3/2
    # is no value of a Z series, and a zero product is pruned
    M = MultiSeries(Z, 2, 3, {(1, 1): 3, (0, 2): 4})
    for scaled in (lambda: M.scale(Fraction(1, 2)), lambda: M * Fraction(1, 2)):
        with pytest.raises(TypeError, match=r"cannot coerce Fraction\(3, 2\) into Z"):
            scaled()
    assert M.scale(Fraction(2)).coeffs == {(1, 1): 6, (0, 2): 8}
    assert (-M).coeffs == {(1, 1): -3, (0, 2): -4}
    R = ProfiniteRing(PrimeBudget.uniform([2], 3))
    assert MultiSeries(R, 1, 2, {(1,): 4}).scale(2).is_zero()


def test_is_symmetric_unknown_difference_raises():
    # a and b agree mod 3^4 but have no digits at p = 2: whether they are
    # equal is unknown, so the symmetry verdict raises instead of True
    B = PrimeBudget.uniform([2, 3], 4)
    R = ProfiniteRing(B)
    a = ProfiniteApprox(B, {2: 0, 3: 5}, {2: 0, 3: 4})
    b = ProfiniteApprox(B, {2: 0, 3: 5}, {2: 0, 3: 4})
    with pytest.raises(PrecisionError, match=r"coefficient \(0, 1\) has no digits at p=2"):
        is_symmetric(MultiSeries(R, 2, 3, {(1, 0): a, (0, 1): b}))
    # with every digit the verdicts stand
    five, six = ProfiniteApprox.from_int(B, 5), ProfiniteApprox.from_int(B, 6)
    assert is_symmetric(MultiSeries(R, 2, 3, {(1, 0): five, (0, 1): five}))
    assert not is_symmetric(MultiSeries(R, 2, 3, {(1, 0): five, (0, 1): six}))


def test_is_symmetric_reads_a_kept_zero_as_zero():
    # a zero known to one digit of two is kept, and its permutation, an
    # exact zero, is not stored: symmetric, as a zero at full precision is
    B = PrimeBudget.uniform([2, 3], 2)
    R = ProfiniteRing(B)
    low = ProfiniteApprox(B, {2: 0, 3: 0}, {2: 1, 3: 2})
    M = MultiSeries(R, 2, 3, {(1, 0): low, (1, 1): 5})
    assert list(M.coeffs) == [(1, 0), (1, 1)]
    assert is_symmetric(M)
    assert not is_symmetric(MultiSeries(R, 2, 3, {(1, 0): low, (2, 1): 5}))


def test_is_symmetric_known_difference_decides_in_any_order():
    # the u entries differ by an unknown value, the integer entries by a
    # known nonzero one: False, whichever entries come first
    B = PrimeBudget.uniform([2, 3], 4)
    R = ProfiniteRing(B)
    u = ProfiniteApprox(B, {2: 0, 3: 5}, {2: 0, 3: 4})
    blind = {(1, 0): u, (0, 1): u}
    known = {(2, 0): 5, (0, 2): 6}
    assert not is_symmetric(MultiSeries(R, 2, 3, {**blind, **known}))
    assert not is_symmetric(MultiSeries(R, 2, 3, {**known, **blind}))
    with pytest.raises(PrecisionError, match=r"coefficient \(0, 1\) has no digits at p=2"):
        is_symmetric(MultiSeries(R, 2, 3, {**blind, (2, 0): 5, (0, 2): 5}))


def test_iter_partial_equals_folded():
    # production route iter_partial (one subset sum) against its oracle,
    # the m-fold nested iter_partial(G, 1)
    rng = random.Random(0)
    for _ in range(4):
        G = rand_series(rng, 7)
        for m in (1, 2, 3):
            it = iter_partial(G, m)
            fold = iter_partial(G, 1)
            for _ in range(m - 1):
                fold = iter_partial(fold, 1)
            assert it == fold


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_iter_partial_substitutes_once(monkeypatch, m):
    # one subst_first for m >= 1, whatever the number of subsets; m = 0 only filters
    calls = []

    def counting(*args):
        calls.append(args)
        return subst_first(*args)

    monkeypatch.setattr(multisym, "subst_first", counting)
    for G in (lg_series(3, 7), MultiSeries(Q, 2, 5, {(1, 1): Fraction(1, 2), (2, 0): 3})):
        calls.clear()
        iter_partial(G, m)
        assert len(calls) == (1 if m else 0)


def test_iter_partial_lg_product_formula():
    n = 3
    it = iter_partial(lg_series(n, 8), n - 1)
    lg1 = lg_series(1, 8)
    P = univ_in_var(lg1, 0, 3) * univ_in_var(lg1, 1, 3) * univ_in_var(lg1, 2, 3)
    assert it == P


def test_iter_partial_valuation_observation():
    for n in (1, 2, 3):
        for m in range(n, 7):
            xm = TruncSeries.monomial(Q, 8, m)
            assert iter_partial(xm, n - 1).total_valuation() == m


def test_iter_partial_constant_vanishes():
    for m in (1, 2, 3):
        assert iter_partial(TruncSeries.one(Q, 6), m).is_zero()


def test_first_block_symmetry_always():
    # partial^m G is symmetric in the first m+1 variables for every G,
    # symmetric or not; check on an asymmetric multivariate input
    G = MultiSeries(Q, 2, 6, {(2, 1): 1, (1, 3): 2})
    D = iter_partial(G, 1)
    for (a, b, c), v in D.coeffs.items():
        assert D.get((b, a, c)) == v


# -- double symmetry ------------------------------------------------------------


def test_double_symmetric_from_univariate():
    rng = random.Random(4)
    L = rand_series(rng, 8)
    assert is_double_symmetric(iter_partial(L, 2))


def test_double_symmetric_counterexample():
    ms = MultiSeries(Q, 2, 5, {(2, 1): 1, (1, 1): 1})
    assert not is_double_symmetric(ms)


def test_double_symmetric_univariate_vacuous():
    assert is_double_symmetric(TruncSeries(Q, 5, [0, 1, 2]))


def test_double_symmetric_iff_integrable():
    # is_double_symmetric against "integrate_symmetric does not raise" on
    # partial^(n-1) L, left clean or perturbed at one composition key or on
    # its whole permutation orbit; each perturbation kind meets both verdicts
    rng = random.Random(11)
    seen = {"clean": set(), "key": set(), "orbit": set()}
    for trial in range(300):
        n, T = rng.choice([2, 3]), rng.randint(3, 7)
        L = TruncSeries(Q, T, [0] + [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                                     for _ in range(T)])
        M = iter_partial(L, n - 1)
        kind = rng.choice(sorted(seen))
        if kind != "clean":
            key = (0,) * n
            while sum(key) > T or 0 in key:
                key = tuple(rng.randint(1, T - n + 1) for _ in range(n))
            keys = {key} if kind == "key" else set(permutations(key))
            delta = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice((1, 2)))
            coeffs = dict(M.coeffs)
            for k in keys:
                coeffs[k] = coeffs.get(k, 0) + delta
            M = MultiSeries(Q, n, T, coeffs)
        try:
            integrate_symmetric(M)
            integrable = True
        except NotIntegrable:
            integrable = False
        assert is_double_symmetric(M) == integrable, (trial, kind, M)
        seen[kind].add(integrable)
    assert seen == {"clean": {True}, "key": {True, False}, "orbit": {True, False}}


def test_symmetry_checker_on_missing_orbit():
    M = MultiSeries(Q, 2, 5, {(2, 1): 1})
    assert not is_symmetric(M)
    M2 = MultiSeries(Q, 2, 5, {(2, 1): 1, (1, 2): 1})
    assert is_symmetric(M2)


# -- integration -----------------------------------------------------------------


def test_integration_round_trips():
    rng = random.Random(5)
    for trial in range(12):
        n = 1 + trial % 4
        T = rng.randint(n, 12)
        L = TruncSeries(
            Q, T, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(T + 1)]
        )
        D = iter_partial(L, n - 1)
        L2 = integrate_symmetric(D)
        assert iter_partial(L2, n - 1) == D, (trial, n)
        # normalised: no lg_0..lg_{n-1} part, and L's lg coordinates from n on
        b, b2 = b_map(L, T), b_map(L2, T)
        assert all(b2[i] == 0 for i in range(n)), (trial, n)
        assert all(b2[i] == b[i] for i in range(n, T + 1)), (trial, n)


def test_integration_lg_product():
    P3 = iter_partial(lg_series(3, 8), 2)
    L = integrate_symmetric(P3)
    assert iter_partial(L, 2) == P3
    # the normalised integral has no lg_0..lg_2 part, so it is lg_3 itself
    assert L == lg_series(3, 8)


def test_integration_minus_x1x2():
    G = MultiSeries(Q, 2, 8, {(1, 1): Fraction(-1)})
    L = integrate_symmetric(G)
    D = iter_partial(L, 1)
    assert D == G


def test_integration_rejects_asymmetric():
    bad = MultiSeries(Q, 2, 6, {(1, 2): 1, (1, 1): 1})
    with pytest.raises(NotIntegrable):
        integrate_symmetric(bad)
    # one coefficient off an integrable series, at a key that is not its own
    # permutation orbit, so no symmetric series makes up the difference
    rng = random.Random(7)
    for trial in range(9):
        n = 2 + trial % 3
        T = rng.randint(n + 1, 10)
        L = TruncSeries(
            Q, T, [0] + [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(T)]
        )
        D = iter_partial(L, n - 1)
        key = (1,) * n
        while len(set(key)) == 1 or sum(key) > T:
            key = tuple(rng.randint(1, 3) for _ in range(n))
        D.coeffs[key] = D.get(key) + Fraction(rng.choice([1, -1]), rng.randint(1, 3))
        with pytest.raises(NotIntegrable, match="not double-symmetric"):
            integrate_symmetric(D)


def test_integration_requires_full_divisibility():
    bad = MultiSeries(Q, 2, 6, {(0, 2): 1, (2, 0): 1})
    with pytest.raises(NotIntegrable):
        integrate_symmetric(bad)


# -- the derivative reduction formula ----------------------------------------------


def test_aformula_random():
    rng = random.Random(6)
    for n in (1, 2, 3):
        G = rand_series(rng, 8, dens=(1, 2, 3, 4))
        assert aformula_check(G, n)


def test_aformula_lg1_both_sides_zero():
    assert aformula_check(lg_series(1, 8), 2)


def test_aformula_x_squared_by_hand():
    assert aformula_check(TruncSeries(Q, 4, [0, 0, 1]), 1)


# -- integrality preservation -----------------------------------------------------


def test_partial_preserves_integer_coefficients():
    rng = random.Random(7)
    for _ in range(5):
        G = TruncSeries(Z, 7, [rng.randint(-9, 9) for _ in range(8)])
        D = iter_partial(G, 1)
        assert integer_coefficients(D)
        DD = iter_partial(G, 2)
        assert integer_coefficients(DD)


def test_partial_over_profinite(budget):
    ring = ProfiniteRing(budget)
    G = adams_series(3, 6).map_coeffs(lambda v: ProfiniteApprox.from_int(budget, 1) * v, ring)
    D = iter_partial(G, 1)
    assert integer_coefficients(D)


# -- the membership equivalences (Phi vs partial) -----------------------------------


def test_ifandonlyif_integrality_both_directions():
    from ckops.suites import random_membership_witness

    rng = random.Random(8)
    for trial in range(16):
        n = rng.randint(1, 3)
        G, expect = random_membership_witness(rng, 11, n)
        a = in_Qn(G, n)
        b = in_Opnm_phi(G, n, n)
        assert a == b, (trial, n)
        assert a == expect, (trial, n)


def test_ifandonlyif_valuation_shift():
    # v(partial^n G) >= m iff v(partial^(n-1) Phi G) >= m-1
    rng = random.Random(9)
    for trial in range(10):
        n = rng.randint(1, 3)
        G = TruncSeries(Q, 10, [0] + [rng.randint(-6, 6) for _ in range(10)])
        lhs = iter_partial(G, n)
        rhs = iter_partial(phi(G), n - 1)
        vl = lhs.total_valuation()
        vr = rhs.total_valuation()
        for m in range(1, 9):
            left = vl is None or vl >= m
            right = vr is None or vr >= m - 1
            assert left == right, (trial, n, m, vl, vr)
