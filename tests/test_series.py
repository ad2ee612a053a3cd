import json
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from ckops import (
    PrecisionError,
    PrimeBudget,
    ProfiniteApprox,
    ProfiniteRing,
    Q,
    TruncSeries,
    TruncationExhausted,
    Z,
    adams_series,
    b_map,
    compose_op,
    construct_Fn,
    construct_Gn,
    desuspend,
    lg_decompose,
    lg_series,
    phi,
    valuation,
    weighted_lg,
)
from ckops.multisym import iter_partial
from ckops.series import Composer, adams_coordinates, chain_sum, chain_weights, stirling2
from ckops.series import all_zero
from oracles import assemble_lg, combine_by_terms, compose_by_scaling, lg_by_powers


def prof(budget, n):
    return ProfiniteApprox.from_int(budget, n)


def to_profinite(G, budget):
    ring = ProfiniteRing(budget)
    return G.map_coeffs(lambda v: prof(budget, 1) * v, ring)


def rand_rational_series(rng, T, dens=(1, 2, 3, 4)):
    return TruncSeries(
        Q, T, [Fraction(rng.randint(-6, 6), rng.choice(dens)) for _ in range(T + 1)]
    )


# -- valuation ---------------------------------------------------------------


def test_valuation_examples():
    assert valuation(TruncSeries(Q, 8, [0, 0, 0, 1, 0, 1])) == 3
    assert valuation(TruncSeries.zero(Q, 6)) is None
    assert valuation(lg_series(2, 6)) == 2


def test_valuation_of_coefficient_without_digits_is_unknown():
    budget = PrimeBudget.uniform([2], 1)
    ring = ProfiniteRing(budget)
    blind = ProfiniteApprox.from_int(budget, 2).divide_exact(2)  # no digits left
    assert blind.eq_within(0)
    with pytest.raises(PrecisionError, match="p=2"):
        blind.is_zero()
    with pytest.raises(PrecisionError, match="p=2"):
        valuation(TruncSeries(ring, 3, [0, blind, 1]))
    # a zero known to one digit is zero within precision
    assert valuation(TruncSeries(ring, 3, [0, 0, 1])) == 2
    # a nonzero residue at another prime decides, whatever p = 2 holds
    wide = PrimeBudget.uniform([2, 3], 2)
    c = ProfiniteApprox(wide, {2: 0, 3: 1}, {2: 0, 3: 2})
    assert valuation(TruncSeries(ProfiniteRing(wide), 3, [0, c])) == 1


def _blind_series():
    # degree 1 has zero residues but no digits at p = 2
    budget = PrimeBudget.uniform([2, 3], 4)
    ring = ProfiniteRing(budget)
    blind = ProfiniteApprox(budget, {2: 0, 3: 0}, {2: 0, 3: 4})
    return ring, TruncSeries(ring, 2, [0, blind])


def test_series_equality_with_unknown_coefficient_raises():
    ring, G = _blind_series()
    with pytest.raises(PrecisionError, match="coefficient 1 has no digits at p=2"):
        G == TruncSeries.zero(ring, 2)
    # a known difference elsewhere decides, whatever degree 1 holds
    assert G != TruncSeries(ring, 2, [0, 0, 1])


def test_series_is_zero_with_unknown_coefficient_raises():
    ring, G = _blind_series()
    with pytest.raises(PrecisionError, match="coefficient 1 has no digits at p=2"):
        G.is_zero()
    assert not (G + TruncSeries(ring, 2, [0, 0, 1])).is_zero()
    assert TruncSeries(ring, 2, [0, 0, 0]).is_zero()


def test_all_zero_rule_is_independent_of_order():
    # a known nonzero value decides False wherever it stands; otherwise the
    # first unknown value raises, named by its label
    budget = PrimeBudget.uniform([2, 3], 4)
    ring = ProfiniteRing(budget)
    blind = ProfiniteApprox(budget, {2: 0, 3: 0}, {2: 0, 3: 4})
    one, zero = ring.one(), ring.zero()
    assert not all_zero(ring, [("a", blind), ("b", one)])
    assert not all_zero(ring, [("b", one), ("a", blind)])
    with pytest.raises(PrecisionError, match="coefficient a has no digits at p=2"):
        all_zero(ring, [("z", zero), ("a", blind), ("c", blind)])
    assert all_zero(ring, [("z", zero)]) and all_zero(ring, [])
    assert not all_zero(Q, [(0, Fraction(0)), (1, Fraction(1, 2))])


# -- phi ---------------------------------------------------------------------


def test_phi_adams_eigen():
    for r in (-3, 2, 5):
        Ar = adams_series(r, 9)
        assert phi(Ar) == Ar.truncate(8).scale(r)


def test_phi_lg_ladder():
    assert phi(lg_series(3, 9)) == lg_series(2, 8)


def test_phi_constant_and_exhaustion():
    assert phi(TruncSeries.one(Q, 5)).is_zero()
    with pytest.raises(TruncationExhausted):
        phi(TruncSeries.one(Q, 0))


# -- adams_series ------------------------------------------------------------


def test_adams_examples():
    assert list(adams_series(2, 3).coeffs) == [1, -2, 1, 0]
    A = adams_series(-1, 3)
    assert list(A.coeffs) == [1, 1, 1, 1]
    # verified by multiplying back with (1-x)
    prod = A * TruncSeries(Z, 3, [1, -1])
    assert list(prod.coeffs) == [1, 0, 0, 0]


def test_adams_b_map_powers():
    for m in range(-2, 11):
        w = b_map(adams_series(m, 12), 12)
        assert all(w[i] == m**i for i in range(13))


def test_adams_profinite_matches_integer(budget):
    r = prof(budget, 5)
    A = adams_series(r, 6)
    B = adams_series(5, 6)
    for a, b in zip(A.coeffs, B.coeffs):
        assert a.eq_within(b)


def test_adams_profinite_precision_error():
    budget = PrimeBudget.uniform([2], 3)
    with pytest.raises(PrecisionError):
        adams_series(ProfiniteApprox.from_int(budget, 3), 6)


# -- lg_series / weighted_lg --------------------------------------------------


def test_lg_examples():
    lg1 = lg_series(1, 3)
    assert list(lg1.coeffs) == [0, Fraction(-1), Fraction(-1, 2), Fraction(-1, 3)]
    assert lg_series(0, 5) == TruncSeries.one(Q, 5)
    for r in range(1, 7):
        G = lg_series(r, 8)
        assert valuation(G) == r
        assert G.coeffs[r] == Fraction((-1) ** r, math.factorial(r))


def test_lg_series_matches_power_route():
    # the Stirling recurrence against the r-1 Fraction series products it
    # replaced, past r = T where lg_r vanishes to the truncation
    for T in range(19):
        for r in range(T + 3):
            got = lg_series(r, T)
            assert got.coeffs == lg_by_powers(r, T).coeffs, (r, T)
            assert all(type(c) is Fraction for c in got.coeffs)


def test_lg_series_stirling_orthogonality():
    # first-kind kernel (lg_series) against second-kind kernel (b_map)
    for T in range(17):
        for r in range(T + 1):
            assert list(b_map(lg_series(r, T), T).values) == [int(i == r) for i in range(T + 1)]


def test_weighted_lg_constant_factor():
    for r in (1, 2, 3):
        W = weighted_lg([4] * 10, r, 10)
        assert W == lg_series(r, 10).scale(4)


def test_weighted_lg_r1_formula():
    a = [3, -1, 4, 1, 5, 9, 2, 6]
    W = weighted_lg(a, 1, 8)
    assert list(W.coeffs) == [0] + [Fraction(-a[i - 1], i) for i in range(1, 9)]


def test_weighted_lg_empty_window_is_zero_of_the_sequence_ring(budget):
    # T = 0 reads no entry; the ring still comes from a's first entry
    ring = ProfiniteRing(budget)
    cases = [([3, 1], Q), ([prof(budget, 5)] * 2, ring), ([], Q)]
    for a, want in cases:
        for r in (1, 2):
            assert weighted_lg(a, r, 0).to_json() == TruncSeries.zero(want, 0).to_json(), (a, r)


def test_weighted_lg_phi_ladder():
    rng = random.Random(5)
    for r in (2, 3, 4):
        a = [rng.randint(-9, 9) for _ in range(10)]
        assert phi(weighted_lg(a, r, 10)) == weighted_lg(a, r - 1, 9)


# -- composition --------------------------------------------------------------


def test_compose_identity_both_sides():
    one_minus_x = TruncSeries(Z, 8, [1, -1])
    H = TruncSeries(Z, 8, [3, 1, 4, 1, 5, 9, 2, 6, 5])
    assert compose_op(one_minus_x, H) == H
    assert compose_op(H, one_minus_x) == H


def test_compose_adams_multiplicativity():
    for k in (-3, 2, 3):
        for m in (-2, 4, 5):
            assert compose_op(adams_series(k, 9), adams_series(m, 9)) == adams_series(k * m, 9)


def test_compose_lg_idempotents():
    for n in range(5):
        for m in range(5):
            got = compose_op(lg_series(n, 9), lg_series(m, 9))
            want = lg_series(n, 9) if n == m else TruncSeries.zero(Q, 9)
            assert got == want


def test_compose_partition_of_identity():
    T = 10
    total = TruncSeries.zero(Q, T)
    for r in range(T + 1):
        total = total + lg_series(r, T)
    assert total == TruncSeries(Q, T, [1, -1])


def test_compose_commutative_and_bilinear_over_Z():
    rng = random.Random(9)
    T = 8
    for _ in range(10):
        A = TruncSeries(Z, T, [rng.randint(-5, 5) for _ in range(T + 1)])
        B = TruncSeries(Z, T, [rng.randint(-5, 5) for _ in range(T + 1)])
        C = TruncSeries(Z, T, [rng.randint(-5, 5) for _ in range(T + 1)])
        assert compose_op(A, B) == compose_op(B, A)
        assert compose_op(A + B, C) == compose_op(A, C) + compose_op(B, C)
        assert compose_op(A, B + C) == compose_op(A, B) + compose_op(A, C)


def test_compose_commutative_over_profinite(budget):
    rng = random.Random(10)
    T = 6
    ring = ProfiniteRing(budget)
    for _ in range(5):
        A = TruncSeries(ring, T, [prof(budget, rng.randrange(1000)) for _ in range(T + 1)])
        B = TruncSeries(ring, T, [prof(budget, rng.randrange(1000)) for _ in range(T + 1)])
        assert compose_op(A, B) == compose_op(B, A)


def test_compose_matches_lg_basis_route():
    rng = random.Random(11)
    T = 8
    for _ in range(6):
        A = rand_rational_series(rng, T)
        B = rand_rational_series(rng, T)
        direct = compose_op(A, B)
        wa = lg_decompose(A)
        wb = lg_decompose(B)
        via_lg = assemble_lg([a * b for a, b in zip(wa.values, wb.values)], T)
        assert direct == via_lg


def test_compose_diagonal_matches_iter_partial():
    # the collapsed diagonal formula equals literal subset-sum evaluation
    rng = random.Random(12)
    T = 6
    H = TruncSeries(Q, T, [Fraction(rng.randint(-4, 4)) for _ in range(T + 1)])
    comp = Composer(H)
    for i in (1, 2, 3):
        D = iter_partial(H, i - 1)
        diag = [Q.zero() for _ in range(T + 1)]
        for key, val in D.coeffs.items():
            d = sum(key)
            if d <= T:
                diag[d] += val
        assert list(comp.U[i].coeffs) == [(-1) ** i * c for c in diag]


# The Composer table against the Horner-substitution oracle, the route it
# replaced: U_i = sum_j (-1)^j C(i,j) H([j](x)) with each H([j](x)) built
# by TruncSeries.substitute of [j](x) = 1 - (1-x)^j.


def horner_U(H):
    T, ring = H.trunc, H.ring
    one = TruncSeries.one(ring, T)
    W, power = [], one
    for _ in range(T + 1):
        W.append(H.substitute(one - power))
        power = power * TruncSeries(ring, T, [1, -1])
    U = []
    for i in range(T + 1):
        acc = TruncSeries.zero(ring, T)
        for j in range(i + 1):
            acc = acc + W[j].scale((-1) ** j * math.comb(i, j))
        U.append(acc)
    return U


def composer_arg_power(k, i, d):
    # [x^d] [k](x)^i = sum_j (-1)^j C(i,j) [x^d] (1-x)^(jk)
    return sum((-1) ** (j + d) * math.comb(i, j) * math.comb(j * k, d) for j in range(i + 1))


def composer_prec_rule(H, i, d, p):
    # the precision the Composer docstring promises for [x^d] U_i at p
    prec = [c.prec[p] for c in H.coeffs]
    if i == 0:
        return prec[0] if d == 0 else H.ring.budget.exponent(p)
    deps = [min(prec[k:]) for k in range(1, H.trunc + 1) if composer_arg_power(k, i, d)]
    return min(deps, default=H.ring.budget.exponent(p))


def check_profinite_table(H):
    # every term of the oracle's products enters, so its precision is a
    # lower bound for the table's
    for i, (got, want) in enumerate(zip(Composer(H).U, horner_U(H))):
        for d, (a, b) in enumerate(zip(got.coeffs, want.coeffs)):
            for p in H.ring.budget.primes:
                assert a.prec[p] == composer_prec_rule(H, i, d, p)
                k = min(a.prec[p], b.prec[p])
                assert a.residue_mod(p, k) == b.residue_mod(p, k)
                assert a.prec[p] >= b.prec[p]


@pytest.mark.parametrize("T", [6, 12, 16])
def test_composer_table_matches_horner_oracle_over_Q_and_Z(T):
    rng = random.Random(T)
    cases = [lg_series(n, T) for n in range(T + 1)]
    cases += [adams_series(k, T) for k in (-3, -1, 0, 1, 2, 5)]
    cases += [rand_rational_series(rng, T) for _ in range(2)]
    cases += [TruncSeries(Z, T, [rng.randint(-9, 9) for _ in range(T + 1)]) for _ in range(2)]
    for H in cases:
        b = adams_coordinates(H)
        back = TruncSeries.zero(H.ring, T)
        for k, bk in enumerate(b):
            back = back + adams_series(k, T).map_coeffs(H.ring.coerce, H.ring).scale(bk)
        assert back == H
        assert [U.coeffs for U in Composer(H).U] == [U.coeffs for U in horner_U(H)]


@pytest.mark.parametrize("prec", [6, 8, 12])
def test_composer_table_matches_horner_oracle_over_profinite(prec):
    budget = PrimeBudget.uniform([2, 3, 5, 7], prec)
    ring = ProfiniteRing(budget)
    rng = random.Random(prec)
    for T in (5, 8):
        for _ in range(2):
            coeffs = []
            for _ in range(T + 1):
                c = prof(budget, rng.randrange(10**6))
                if rng.random() < 0.4:  # lose a few digits at the divisor's primes
                    m = rng.choice([2, 3, 4, 6, 9, 10, 25])
                    c = (c * m).divide_exact(m)
                coeffs.append(c)
            check_profinite_table(TruncSeries(ring, T, coeffs))
    # a profinite Adams exponent: coefficient k has lost v_p(k!) digits, and
    # the coefficients past k = 5 are zero within their precision
    check_profinite_table(adams_series(prof(budget, 5), 7))


def test_composer_low_precision_zero_coefficient(budget):
    # a_4 = 0 known only mod 2: it tests as zero, but every entry of the
    # table that depends on it must keep only that one digit at p = 2
    T, m = 8, 4
    ring = ProfiniteRing(budget)
    low = ProfiniteApprox(budget, {p: 0 for p in budget.primes},
                          {p: 1 if p == 2 else 8 for p in budget.primes})
    assert low.is_zero()
    coeffs = [prof(budget, c) for c in (3, -1, 4, 1, 0, 9, -2, 6, 5)]
    coeffs[m] = low
    H = TruncSeries(ring, T, coeffs)
    U = Composer(H).U
    assert U[0].coeffs[0].prec == coeffs[0].prec
    for i in range(1, T + 1):
        for d in range(T + 1):
            depends = any(composer_arg_power(k, i, d) for k in range(1, m + 1))
            assert U[i].coeffs[d].prec[2] == (1 if depends else 8)
            assert all(U[i].coeffs[d].prec[p] == 8 for p in (3, 5, 7))
    assert U[1].coeffs[1].prec[2] == 1
    check_profinite_table(H)


def test_profinite_product_keeps_precision_of_zero_factor():
    # z = 0 known to 1 digit at p = 2: every product and composition term
    # that touches it keeps only that digit, whichever side z is on
    budget = PrimeBudget.uniform([2, 3], 4)
    ring = ProfiniteRing(budget)
    z = ProfiniteApprox(budget, {2: 0, 3: 0}, {2: 1, 3: 4})
    assert z.is_zero()
    F = TruncSeries(ring, 2, [z, prof(budget, 1), prof(budget, 0)])
    G = TruncSeries(ring, 2, [prof(budget, 1)] * 3)
    FG, GF = F * G, G * F
    assert [c.prec for c in FG.coeffs] == [c.prec for c in GF.coeffs]
    assert all(c.prec == {2: 1, 3: 4} for c in FG.coeffs)
    assert FG == GF
    H = TruncSeries(ring, 2, [prof(budget, 0), prof(budget, 1), prof(budget, 1)])
    C = Composer(H).compose(F)
    assert all(c.prec == {2: 1, 3: 4} for c in C.coeffs)


# ring.combine against the term-by-term loop it replaced, directly and
# through each caller, compared by the JSON of every value (so precision
# counts).  Profinite values have precision 0..e per prime.

_BUDGET = PrimeBudget((2, 3, 5), (4, 2, 3))


def _values(rng, ring, n):
    if ring == Q:
        return [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n)]
    if ring == Z:
        return [rng.randint(-50, 50) for _ in range(n)]
    out = []
    for _ in range(n):
        prec = {p: rng.choice([0, e, e, rng.randint(0, e)])
                for p, e in zip(_BUDGET.primes, _BUDGET.exponents)}
        res = {p: rng.choice([0, rng.randrange(p**5)]) for p in _BUDGET.primes}
        out.append(ProfiniteApprox(_BUDGET, res, prec))
    return out


def _json(ring, vals):
    return json.dumps([ring.coeff_to_json(v) for v in vals])


def _outcome(ring, fn):
    try:
        return _json(ring, fn())
    except PrecisionError as exc:
        return f"PrecisionError: {exc}"


_RINGS = [Q, Z, ProfiniteRing(_BUDGET)]


@pytest.mark.parametrize("ring", _RINGS, ids=["Q", "Z", "Zhat"])
def test_combine_matches_per_term_loop(ring):
    rng = random.Random(str(ring))
    # precision 0 at one prime, full precision, zero that only tests as zero
    cases = [([], []), ([], [[], []])]
    if isinstance(ring, ProfiniteRing):
        cases.append(([ProfiniteApprox(_BUDGET, {2: 5, 3: 0, 5: 7}, {2: 4, 3: 0, 5: 3}),
                       ProfiniteApprox.from_int(_BUDGET, 6),
                       ProfiniteApprox(_BUDGET, {2: 0, 3: 0, 5: 0}, {2: 1, 3: 2, 5: 3})],
                      [[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, -3, 5], [0, 0, 0]]))
    for _ in range(60):
        n = rng.randint(0, 8)
        rows = [[rng.choice([0, 0, rng.randint(-40, 40)]) for _ in range(n)]
                for _ in range(rng.randint(0, 5))] + [[0] * n]
        cases.append((_values(rng, ring, n), rows))
    for values, rows in cases:
        assert _json(ring, ring.combine(values, rows)) == _json(
            ring, combine_by_terms(ring, values, rows))


def adams_coordinates_by_terms(H):
    a, T = H.coeffs, H.trunc
    return [combine_by_terms(H.ring, a[k:], [[(-1) ** k * math.comb(m, k) for m in range(k, T + 1)]])[0]
            for k in range(T + 1)]


def b_map_by_terms(G, N):
    # (-1)^k k! S(n, k) from the explicit formula for k! S(n, k)
    def weight(n, k):
        return (-1) ** k * sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return [combine_by_terms(G.ring, G.coeffs, [[weight(n, k) for k in range(min(n, G.trunc) + 1)]])[0]
            for n in range(N + 1)]


def chain_sum_by_terms(ring, vals, row):
    if ring == Q:
        return sum((Fraction(vals[i - 1]) * w for i, w in enumerate(row) if w), Fraction(0))
    den = math.lcm(*(w.denominator for w in row))
    acc = ring.zero()
    for i, w in enumerate(row):
        if w:
            acc = acc + vals[i - 1] * int(w * den)
    return acc.divide_exact(den)


@pytest.mark.parametrize("ring", _RINGS, ids=["Q", "Z", "Zhat"])
def test_integer_combinations_match_per_term_forms(ring):
    rng = random.Random(str(ring) + "forms")
    for trial in range(40):
        T = trial % 10  # T = 0 included
        H = TruncSeries(ring, T, _values(rng, ring, T + 1))
        assert _json(ring, adams_coordinates(H)) == _json(ring, adams_coordinates_by_terms(H))
        N = rng.randint(0, 12)
        assert _json(ring, b_map(H, N).values) == _json(ring, b_map_by_terms(H, N))
        if ring == Z:  # chain_sum divides, so it serves Q and Zhat
            continue
        r = rng.randint(1, 4)
        vals = list(H.coeffs[1:])
        if isinstance(ring, ProfiniteRing) and trial % 2:
            vals = [v * 720720 for v in vals]  # divisible, so the division succeeds
        row = chain_weights(r, T)[T]
        assert _outcome(ring, lambda: [chain_sum(ring, vals, row)]) == _outcome(
            ring, lambda: [chain_sum_by_terms(ring, vals, row)])


def _count_constructions(monkeypatch) -> dict:
    """Hook both ProfiniteApprox constructors: the returned dict counts the
    validating (``__init__``) and trusted (``_trusted``) constructions made
    from here on."""
    made = {"validating": 0, "trusted": 0}
    init, trusted = ProfiniteApprox.__init__, ProfiniteApprox._trusted.__func__

    def counting_init(self, *args, **kwargs):
        made["validating"] += 1
        init(self, *args, **kwargs)

    def counting_trusted(cls, *args):
        made["trusted"] += 1
        return trusted(cls, *args)

    monkeypatch.setattr(ProfiniteApprox, "__init__", counting_init)
    monkeypatch.setattr(ProfiniteApprox, "_trusted", classmethod(counting_trusted))
    return made


def test_composer_makes_quadratically_many_ring_values(monkeypatch):
    # the table is one combine of T+1 Adams coordinates over the d >= i half
    # of the tensor: (T+1)(T+2)/2 + T + 1 profinite values at most, where one
    # ring operation per term made thousands; the combine alone makes
    # T(T+1)/2, so the hook sees every construction
    T = 12
    H = adams_series(prof(PrimeBudget.uniform([2, 3, 5, 7], 12), 11), T)
    made = _count_constructions(monkeypatch)
    Composer(H)
    total = made["validating"] + made["trusted"]
    assert T * (T + 1) // 2 <= total <= (T + 1) * (T + 2) // 2 + T + 1


def test_kernels_make_no_validating_constructions(monkeypatch):
    B = PrimeBudget.uniform([2, 3, 5, 7], 8)
    R = ProfiniteRing(B)
    a, b = prof(B, 123456), prof(B, 789).divide_exact(3)
    S = TruncSeries(R, 6, [a, b, 7, 0, a, b, 1])
    made = _count_constructions(monkeypatch)
    values = [a + b, a * b, a * 7, 7 * a, -a, a - b, 5 - a]
    series = [S + S, S - S, -S, S.scale(7), S.scale(a), S * S, S.truncate(3)]
    assert made["validating"] == 0
    assert made["trusted"] >= len(values) + (len(series) - 1) * (S.trunc + 1)


def test_kernel_outputs_pass_the_public_constructor_unchanged(budget):
    # every value a kernel builds without checks is one the constructor
    # accepts and leaves as it is: combine, prepare + apply, adams_series,
    # divide_exact, construct_Gn and construct_Fn, at precision 0 too
    R = ProfiniteRing(_BUDGET)
    rng = random.Random("trusted round trip")
    outputs = []
    for _ in range(20):
        n = rng.randint(1, 6)
        values = _values(rng, R, n)
        outputs += R.combine(values, [[rng.randint(-40, 40) for _ in range(n)] for _ in range(4)])
        cols = [_values(rng, R, 5) for _ in range(n)]
        outputs += R.apply(values, R.prepare(cols))
        for v in values:
            d = rng.choice([1, -2, 3, 25, 12])
            try:
                outputs.append((v * d * rng.randint(1, 9)).divide_exact(d))
            except PrecisionError:
                pass
    outputs += adams_series(prof(_BUDGET, 7), 5).coeffs
    outputs += adams_series(ProfiniteApprox(_BUDGET, {2: 5, 3: 4, 5: 7}, {2: 4, 3: 2, 5: 2}), 2).coeffs
    for n in range(5):
        for basis in (construct_Gn(n, 7, budget), construct_Fn(n, 7, budget)):
            outputs += basis.series.coeffs
            outputs += [w for w, _ in basis.combination]
    assert any(0 in x.prec.values() for x in outputs)
    for x in outputs:
        y = ProfiniteApprox(x.budget, x.residue, x.prec)
        assert (y.residue, y.prec) == (x.residue, x.prec)
        assert all(type(v) is int for v in (*x.residue.values(), *x.prec.values()))


# Composer.compose (one ring.apply) against the scaled-sum loop it
# replaced: values and types over Q and Z, residue and precision dicts
# over Zhat, with digit-less and one-digit coefficients, zero coefficients
# and the right factor's truncation above and below the left one's.

_COMPOSE_BUDGET = PrimeBudget.uniform([2, 3, 5], 6)


def _compose_coeffs(rng, ring, n):
    if ring == Q:
        return [rng.choice([Fraction(0), Fraction(rng.randint(-20, 20), rng.randint(1, 9))])
                for _ in range(n)]
    if ring == Z:
        return [rng.choice([0, rng.randint(-30, 30)]) for _ in range(n)]
    out = []
    for _ in range(n):
        prec = {p: rng.choice([0, 1, 6, 6, rng.randint(0, 6)]) for p in _COMPOSE_BUDGET.primes}
        res = {p: rng.choice([0, rng.randrange(p**6)]) for p in _COMPOSE_BUDGET.primes}
        out.append(ProfiniteApprox(_COMPOSE_BUDGET, res, prec))
    return out


def _exact(ring, series):
    if isinstance(ring, ProfiniteRing):
        return [(c.residue, c.prec) for c in series.coeffs]
    return [(type(c), c) for c in series.coeffs]


@pytest.mark.parametrize("ring", [Q, Z, ProfiniteRing(_COMPOSE_BUDGET)], ids=["Q", "Z", "Zhat"])
def test_compose_kernel_matches_scaling_oracle(ring):
    rng = random.Random(f"compose {ring}")
    for trial in range(40):
        T, T2 = rng.randint(0, 9), rng.randint(0, 11)
        H = TruncSeries(ring, T, _compose_coeffs(rng, ring, T + 1))
        if trial % 5 == 0:  # Adams and lg series as the left factor
            H = lg_series(rng.randint(0, T), T) if ring == Q else adams_series(rng.randint(-4, 6), T)
            H = H.map_coeffs(ring.coerce, ring)
        H2 = TruncSeries(ring, T2, _compose_coeffs(rng, ring, T2 + 1))
        C = Composer(H)
        got, want = C.compose(H2), compose_by_scaling(C, H2)
        assert got.trunc == want.trunc == min(T, T2)
        assert _exact(ring, got) == _exact(ring, want)


def test_compose_mixed_rings_coerce_the_right_factor_first():
    # the right factor's coefficients enter the left factor's ring before
    # the kernel reads them, so a mismatch is the ring's own coercion error
    Zhat = ProfiniteRing(PrimeBudget.uniform([2], 4))
    half = TruncSeries(Q, 3, [0, Fraction(1, 2), 1])
    Hq = TruncSeries(Q, 3, [0, 1, Fraction(1, 3)])
    Hz = TruncSeries(Z, 3, [0, 1, 2])
    Hp = TruncSeries(Zhat, 3, [0, 1, 2])
    got = compose_op(Hq, Hz)
    assert got.ring == Q and all(type(c) is Fraction for c in got.coeffs)
    assert got == compose_op(Hq, Hz.map_coeffs(Q.coerce, Q))
    for H, H2, error, message in [
        (Hz, half, TypeError, "cannot coerce Fraction(1, 2) into Z"),
        (Hp, half, ValueError, "denominator 2 not invertible mod 16"),
        # a Zhat zero is not an exact zero: Q rejects it like any other
        (Hq, Hp, TypeError, "cannot coerce ProfiniteApprox(0 mod 2^4) into Q"),
        (Hq, TruncSeries.zero(Zhat, 3), TypeError, "cannot coerce ProfiniteApprox(0 mod 2^4) into Q"),
    ]:
        with pytest.raises(error) as exc:
            Composer(H).compose(H2)
        assert str(exc.value) == message


@pytest.mark.parametrize("ring", [Q, Z, ProfiniteRing(_COMPOSE_BUDGET)], ids=["Q", "Z", "Zhat"])
def test_composer_prepares_its_table_once(monkeypatch, ring):
    # Composer.__init__ prepares the table; a right factor of lower, equal or
    # higher truncation is applied to that same table, never to a new one
    calls = []
    prepare = ring.prepare
    monkeypatch.setattr(ring, "prepare", lambda cols: calls.append(cols) or prepare(cols))
    rng = random.Random(f"prepare once {ring}")
    C = Composer(TruncSeries(ring, 6, _compose_coeffs(rng, ring, 7)))
    assert len(calls) == 1
    for T2 in (2, 6, 9, 0):
        C.compose(TruncSeries(ring, T2, _compose_coeffs(rng, ring, T2 + 1)))
    assert len(calls) == 1


def _prepared_rows(C) -> list:
    """The integer rows of a Composer's prepared table: one list for Q and
    Z, one per prime for Zhat."""
    if isinstance(C.ring, ProfiniteRing):
        return [[row for row, _ in rows] for _, _, rows in C._table[1]]
    return [C._table[1] if C.ring == Q else C._table]


@pytest.mark.parametrize("ring", [Q, Z, ProfiniteRing(_COMPOSE_BUDGET)], ids=["Q", "Z", "Zhat"])
def test_composer_table_stops_at_the_diagonal(ring):
    # U_i has valuation i, so [x^d] of a composition reads a_0..a_d only:
    # row d of the prepared table holds at most d + 1 entries, at every
    # prime over Zhat, and the left factors below reach the diagonal
    rng = random.Random(f"diagonal {ring}")
    full = 0
    for T in (0, 1, 2, 5, 9, 16):
        for H in (TruncSeries(ring, T, _compose_coeffs(rng, ring, T + 1)),
                  (lg_series(1, T) if ring == Q else adams_series(-3, T)).map_coeffs(ring.coerce, ring)):
            for rows in _prepared_rows(Composer(H)):
                assert len(rows) == T + 1
                assert all(len(row) <= d + 1 for d, row in enumerate(rows)), (T, H)
                full += len(rows[T]) == T + 1
    assert full >= 6


def test_rational_coercion_shares_fractions():
    # a Fraction is immutable, so Q keeps the very object; any other
    # accepted value becomes a plain Fraction
    class Sub(Fraction):
        pass

    f = Fraction(3, 7)
    assert Q.coerce(f) is f
    fs = [Fraction(i, i + 1) for i in range(5)]
    G = TruncSeries(Q, 4, fs)
    assert all(c is f for c, f in zip(G.coeffs, fs))
    for x, want in [(3, Fraction(3)), (True, Fraction(1)), (Sub(2, 5), Fraction(2, 5))]:
        got = Q.coerce(x)
        assert type(got) is Fraction and got == want
    for x in [0.5, "1/2", Decimal("0.5")]:
        with pytest.raises(TypeError, match="into Q"):
            Q.coerce(x)


def test_stirling2_iterative_and_explicit_formula():
    assert stirling2(2000, 2) == 2**1999 - 1
    for n in range(31):
        for k in range(n + 2):
            explicit = sum(
                (-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)
            ) // math.factorial(k)
            assert stirling2(n, k) == explicit


def test_zero_divisor_pair():
    # (Psi_1 + Psi_-1) o (Psi_1 - Psi_-1) = 0
    T = 12
    A1, Am1 = adams_series(1, T), adams_series(-1, T)
    assert compose_op(A1 + Am1, A1 - Am1).is_zero()


# -- lg_decompose / b_map ------------------------------------------------------


def test_lg_decompose_one_minus_x():
    dec = lg_decompose(TruncSeries(Q, 10, [1, -1]))
    assert all(v == 1 for v in dec.values)


def test_lg_decompose_unit_vector():
    dec = lg_decompose(lg_series(3, 9))
    assert list(dec.values) == [0, 0, 0, 1] + [0] * 6


def test_lg_decompose_adams_powers():
    for m in (-2, 3, 5):
        dec = lg_decompose(adams_series(m, 9).map_coeffs(Fraction, Q))
        assert list(dec.values) == [m**i for i in range(10)]


def test_b_map_agrees_with_lg_decompose():
    # production route b_map against its oracle, the back substitution lg_decompose
    rng = random.Random(13)
    for _ in range(8):
        T = rng.randint(4, 10)
        G = rand_rational_series(rng, T)
        N = rng.randint(T, 10)
        w = b_map(G, N)
        dec = lg_decompose(G)
        assert all(w[i] == dec[i] for i in range(T + 1))


def test_b_map_constant():
    w = b_map(TruncSeries(Z, 6, [1]), 6)
    assert list(w.values) == [1, 0, 0, 0, 0, 0, 0]


def test_b_map_idempotent_patterns():
    T = 11
    e_plus = (adams_series(1, T).map_coeffs(Fraction, Q) + adams_series(-1, T).map_coeffs(Fraction, Q)).scale(
        Fraction(1, 2)
    )
    e_minus = (adams_series(1, T).map_coeffs(Fraction, Q) - adams_series(-1, T).map_coeffs(Fraction, Q)).scale(
        Fraction(1, 2)
    )
    wp = b_map(e_plus, T)
    wm = b_map(e_minus, T)
    # with the window starting at index 0: e_+ -> (1,0,1,0,...), e_- -> (0,1,0,1,...)
    assert all(wp[i] == (1 if i % 2 == 0 else 0) for i in range(T + 1))
    assert all(wm[i] == (0 if i % 2 == 0 else 1) for i in range(T + 1))


def test_b_map_ring_homomorphism():
    rng = random.Random(14)
    T = 8
    for _ in range(6):
        A = TruncSeries(Z, T, [rng.randint(-4, 4) for _ in range(T + 1)])
        B = TruncSeries(Z, T, [rng.randint(-4, 4) for _ in range(T + 1)])
        wa, wb = b_map(A, T), b_map(B, T)
        wsum = b_map(A + B, T)
        wprod = b_map(compose_op(A, B), T)
        for i in range(T + 1):
            assert wsum[i] == wa[i] + wb[i]
            assert wprod[i] == wa[i] * wb[i]


def test_b_map_divisibility_congruences():
    # for integer series: b(G)_i = b(G)_j (mod p) whenever i = j (mod p-1)
    rng = random.Random(15)
    T = 12
    for _ in range(8):
        G = TruncSeries(Z, T, [rng.randint(-20, 20) for _ in range(T + 1)])
        w = b_map(G, T)
        for p in (3, 5, 7):
            for i in range(1, T + 1):
                for j in range(i, T + 1, p - 1):
                    assert (w[i] - w[j]) % p == 0


# -- desuspension ---------------------------------------------------------------


def test_desuspend_adams_eigen_low_level():
    for k in (2, 5, -1):
        A = adams_series(k, 8)
        assert desuspend(A, 0) == A.truncate(7).scale(k)


def test_desuspend_projected_level():
    A = adams_series(3, 8)
    proj = TruncSeries(Z, 8, [0] + list(A.coeffs[1:]))  # A_k - 1 shape
    out = desuspend(proj, 2)
    assert out.coeffs[0] == 0


def test_desuspend_constant():
    assert desuspend(TruncSeries.one(Q, 5), 1).is_zero()


# -- serialization ---------------------------------------------------------------


def test_series_json_round_trip(budget):
    G = TruncSeries(Q, 4, [Fraction(1, 2), 3, Fraction(-2, 7), 0, 1])
    assert TruncSeries.from_json(G.to_json()) == G
    H = TruncSeries(Z, 3, [1, -2, 3, 4])
    assert TruncSeries.from_json(H.to_json()) == H
    P = to_profinite(H, budget)
    assert TruncSeries.from_json(P.to_json()) == P


def test_series_json_integer_string_coefficients():
    data = {"ring": "Q", "trunc": 3, "coeffs": ["3", "-2", "0", "5/10"]}
    G = TruncSeries.from_json(data)
    assert G.coeffs == (Fraction(3), Fraction(-2), Fraction(0), Fraction(1, 2))
    # written back in the canonical "num/den" form, which reads back the same
    assert G.to_json()["coeffs"] == ["3/1", "-2/1", "0/1", "1/2"]
    assert TruncSeries.from_json(G.to_json()) == G
    with pytest.raises(ValueError, match="zero denominator"):
        TruncSeries.from_json({"ring": "Q", "trunc": 0, "coeffs": ["1/0"]})
