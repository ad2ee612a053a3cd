import itertools
import math
import random
from fractions import Fraction

import pytest

from ckops import (
    NumericalPoly,
    PrecisionError,
    PrimeBudget,
    ProfiniteApprox,
    Q,
    SeqWindow,
    TruncSeries,
    Z,
    adams_series,
    b_map,
    decompose_TZ,
    dn_tilde,
    fseq,
    interval_in_N,
    pair,
    reflect,
    shift,
    to_e_basis,
)
from ckops.arith import crt_lift
from ckops.kgr import _basis_window, _fn_cached, assemble_TZ
from ckops.linalg import ModMatrix, howell_form, in_howell_span
from ckops.stable import _stable_lattice, a_min
from ckops.series import ProfiniteRing
from oracles import combine_by_terms, span_enumerate, to_e_basis_by_differences


# -- pairing -----------------------------------------------------------------------


def test_pair_defining_duality():
    e2 = NumericalPoly((0, 0, 1))
    assert pair(e2, TruncSeries(Z, 5, [0, 0, 1])) == 1
    assert pair(e2, TruncSeries(Z, 5, [0, 0, 0, 1])) == 0


def test_pair_evaluates_at_adams():
    rng = random.Random(0)
    for _ in range(30):
        deg = rng.randint(0, 8)
        f = NumericalPoly(tuple(rng.randint(-5, 5) for _ in range(deg + 1)))
        m = rng.randint(-10, 10)
        assert pair(f, adams_series(m, 10)) == f(m)


def test_pair_power_multiplicativity():
    # <s^n, (1-x)^(km)> = <s^n, (1-x)^k> <s^n, (1-x)^m>
    for n in range(5):
        sn = to_e_basis([0] * n + [1])
        for k in (2, 3):
            for m in (2, 5):
                lhs = pair(sn, adams_series(k * m, 12))
                rhs = pair(sn, adams_series(k, 12)) * pair(sn, adams_series(m, 12))
                assert lhs == rhs


def test_pair_support_exceeds_truncation():
    f = NumericalPoly((0, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        pair(f, TruncSeries(Z, 3, [1, 1, 1, 1]))


def test_pair_is_b_map_dual():
    rng = random.Random(1)
    for _ in range(10):
        G = TruncSeries(Z, 10, [rng.randint(-9, 9) for _ in range(11)])
        w = b_map(G, 8)
        for n in range(9):
            sn = to_e_basis([0] * n + [1])
            assert pair(sn, G) == w[n]


def _values(x):
    """A ring value with everything that tells it apart: type, and residues
    and precisions for a profinite one."""
    if isinstance(x, ProfiniteApprox):
        return type(x), x.residue, x.prec
    return type(x), x


def test_pair_is_one_combination_of_its_coefficients():
    # production route: one ring.combine row; oracle: the term-by-term sum
    # from ring.zero(), which skips only a zero weight
    rng = random.Random(2)
    B = PrimeBudget.uniform((2, 3), 3)
    zhat = ProfiniteRing(B)
    for trial in range(300):
        T = rng.randint(0, 8)
        ring = (Q, Z, zhat)[trial % 3]
        if ring is zhat:
            coeffs = [ProfiniteApprox(B, {p: rng.randrange(27) for p in B.primes},
                                      {p: rng.randint(0, 3) for p in B.primes}) for _ in range(T + 1)]
        elif ring is Q:
            coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(T + 1)]
        else:
            coeffs = [rng.randint(-9, 9) for _ in range(T + 1)]
        G = TruncSeries(ring, T, coeffs)
        deg = rng.randint(-1, T)
        # trailing zeros beyond T + 1 are allowed: the support is what counts
        e = [rng.choice((0, rng.randint(-5, 5))) for _ in range(deg + 1)] + [0] * rng.randint(0, 3)
        f = NumericalPoly(e)
        want = combine_by_terms(ring, G.coeffs, [e[: T + 1]])[0]
        assert _values(pair(f, G)) == _values(want), (trial, T, e)


def _monomials(e_coeffs):
    """Monomial coefficients in s of sum_n e_n (-1)^n C(s, n)."""
    out = [Fraction(0)] * len(e_coeffs)
    falling = [1]  # s (s - 1) ... (s - n + 1)
    for n, c in enumerate(e_coeffs):
        for j, a in enumerate(falling):
            out[j] += Fraction(c * (-1) ** n * a, math.factorial(n))
        falling = [(falling[j - 1] if j else 0) - (n * falling[j] if j < len(falling) else 0)
                   for j in range(len(falling) + 1)]
    return out


def test_to_e_basis_matches_finite_differences():
    # production route: b_map's transposed Stirling band; oracle: the
    # finite differences it replaced, on numerical polynomials, on ones
    # with one coefficient moved off the lattice, and on arbitrary ones
    rng = random.Random(3)
    for deg in range(-1, 13):
        for _ in range(12):
            e = [rng.randint(-6, 6) for _ in range(deg + 1)]
            mono = _monomials(e)
            assert to_e_basis(mono) == to_e_basis_by_differences(mono) == NumericalPoly(e)
            if deg >= 0:
                # s^j / k takes the value 1/k at s = 1: never numerical
                mono[rng.randint(0, deg)] += Fraction(1, rng.choice((2, 3, 5, 7, 12)))
                assert to_e_basis(mono) is None and to_e_basis_by_differences(mono) is None
            wild = [rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 30))))
                    for _ in range(deg + 1)]
            assert to_e_basis(wild) == to_e_basis_by_differences(wild)
    # s^n/n! is numerical only for n <= 1, so both routes answer None
    for n in range(2, 13):
        mono = [0] * n + [Fraction(1, math.factorial(n))]
        assert to_e_basis(mono) is None and to_e_basis_by_differences(mono) is None


# -- numerical polynomials ------------------------------------------------------------


def test_to_e_basis_s():
    f = to_e_basis([0, 1])
    assert f is not None and f.e_coeffs == (0, -1)


def test_to_e_basis_binom_s2():
    f = to_e_basis([0, Fraction(-1, 2), Fraction(1, 2)])
    assert f is not None and f.e_coeffs == (0, 0, 1)


def test_to_e_basis_rejects_half_s():
    assert to_e_basis([0, Fraction(1, 2)]) is None


def test_to_e_basis_binom_s3():
    # s/3 - s^2/2 + s^3/6 = C(s, 3) = -e_3
    f = to_e_basis([0, Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6)])
    assert f == NumericalPoly((0, 0, 0, -1))


def test_to_e_basis_names_a_float():
    # a float is inexact: rounded, C(s, 3) would look non-numerical
    with pytest.raises(TypeError, match=r"cannot coerce 0\.333\d* into Q"):
        to_e_basis([0, 1 / 3, -0.5, 1 / 6])


# -- windows ----------------------------------------------------------------------------


def test_shift_and_reflect():
    a = SeqWindow(-2, (5, 6, 7, 8, 9))
    s = shift(a, 1)
    assert s.start == -3 and s[0] == a[1] and s[-3] == a[-2]
    assert reflect(reflect(a)) == a
    assert reflect(a)[2] == a[-2]


def test_shift_swaps_parity_pattern(kgr_budget):
    f1 = fseq(1, -2, 4, 16, kgr_budget)
    s = shift(f1, 1)
    assert [s[i] for i in range(-2, 2)] == [2, 0, 2, 0]


def test_reflect_preserves_lattice_membership(kgr_budget):
    # reflected windows of a generated member still have intervals in N_n
    bud = PrimeBudget.uniform([2, 3], 5)
    f1 = fseq(1, -3, 4, 16, kgr_budget)
    r = reflect(f1)
    vals = list(r.values)
    for k in range(len(vals) - 2):
        assert interval_in_N(vals[k : k + 3], bud)


# -- interval lattices ---------------------------------------------------------------------


def test_interval_generator_row():
    bud = PrimeBudget.uniform([2, 3], 6)
    assert interval_in_N([1, 5, 25], bud)
    assert interval_in_N([1, 7, 49], bud)
    # each entry is read as an exact integer: [1, 2.5] once answered False
    # and ["a"] raised a TypeError from string formatting
    for v, bad in (([1, 2.5], "1 = 2.5"), (["a"], "0 = a"), ([1, Fraction(1, 2)], "1 = 1/2")):
        with pytest.raises(ValueError, match=f"^coefficient {bad} is not an integer$"):
            interval_in_N(v, bud)
    assert interval_in_N([1, 5, Fraction(25)], bud) and interval_in_N([Fraction(4)], bud)


def test_interval_dtilde_thresholds():
    bud = PrimeBudget.uniform([2, 3], 6)
    for n in (1, 2, 3):
        dt = dn_tilde(n)
        assert interval_in_N([0] * n + [dt], bud), n
        if dt > 1:
            assert not interval_in_N([0] * n + [dt // 2], bud), n


def _unit_rows(units, n, q):
    return [[pow(r, j, q) for j in range(n)] for r in units]


def _all_units_form(p, q, n):
    return howell_form(ModMatrix(q, _unit_rows([r for r in range(1, q) if r % p], n, q), cols=n))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_units_below_n_p_generate_the_unit_lattice(p):
    # the n(p-1) units below n*p span the rows of every unit below q, and so
    # does b's image of the stable lattice, interval_in_N's generating set:
    # b(A_r)_j = r^j
    q, e = p, 1
    while q <= 1000:
        for n in range(1, 7):
            H = _all_units_form(p, q, n)
            units = _unit_rows(a_min(p, n * (p - 1)), n, q)
            assert howell_form(ModMatrix(q, units, cols=n)) == H, (p, q, n)
            image = [b_map(TruncSeries(Z, n - 1, list(row)), n - 1).values
                     for row in _stable_lattice(n, p, e).entries]
            assert howell_form(ModMatrix(q, image, cols=n)) == H, (p, q, n)
        q, e = q * p, e + 1


def test_interval_matches_all_units_oracle():
    rng = random.Random(5)
    verdicts = set()
    for p, e in ((2, 8), (3, 5), (5, 3), (7, 3)):
        q = p**e
        bud = PrimeBudget.uniform([p], e)
        units = [r for r in range(1, q) if r % p]
        for n in range(1, 6):
            H = _all_units_form(p, q, n)
            for _ in range(6):
                # a lattice member, then half the time one entry moved
                v = [0] * n
                for r in rng.sample(units, 3):
                    c = rng.randrange(q)
                    v = [x + c * pow(r, j, q) for j, x in enumerate(v)]
                if rng.random() < 0.5:
                    v[rng.randrange(n)] += rng.randrange(1, q)
                want = in_howell_span(H, v)
                assert interval_in_N(v, bud) == want, (p, e, v)
                verdicts.add(want)
    assert verdicts == {True, False}


def test_interval_matches_enumeration_small():
    # every v in (Z/q)^n against the brute-force span of all unit power
    # rows, which shares no code with linalg; members counts that span
    for p, e, n, members in ((2, 2, 3, 8), (2, 3, 3, 32), (3, 2, 3, 243),
                             (2, 2, 4, 8), (3, 1, 5, 9), (2, 1, 6, 2)):
        bud = PrimeBudget.uniform([p], e)
        q = p**e
        rows = _unit_rows([r for r in range(1, q) if r % p], n, q)
        S = span_enumerate(ModMatrix(q, rows, cols=n))
        assert len(S) == members, (p, e, n)
        for v in itertools.product(range(q), repeat=n):
            assert interval_in_N(v, bud) == (v in S), (p, e, v)


# -- the canonical sequences -----------------------------------------------------------------


def test_fseq_pinned_windows(kgr_budget):
    assert list(fseq(0, -3, 4, 16, kgr_budget).values) == [1] * 7
    assert list(fseq(1, -2, 3, 16, kgr_budget).values) == [0, 2, 0, 2, 0]


def test_fseq_leading_interval(kgr_budget):
    for n in (2, 3, 4):
        fn = fseq(n, -2, n + 2, 16, kgr_budget)
        assert all(fn[i] == 0 for i in range(n)), n
        assert fn[n] == dn_tilde(n), n


def test_fseq_matches_b_map_on_positive_side(kgr_budget):
    for n in (2, 3):
        F = _fn_cached(n, 16, kgr_budget)
        fn = fseq(n, 0, 9, 16, kgr_budget)
        w = b_map(TruncSeries(Z, 16, list(F.int_coeffs)), 8)
        for i in range(9):
            assert (fn[i] - (-1) ** n * w[i]) % kgr_budget.modulus == 0


def test_fseq_intervals_in_lattice(kgr_budget):
    # every n-interval of a T_R member lies in the unit-power lattice
    bud = PrimeBudget.uniform([2, 3], 4)
    f2 = fseq(2, -2, 6, 16, kgr_budget)
    vals = list(f2.values)
    for ln in (1, 2, 3):
        for k in range(len(vals) - ln + 1):
            assert interval_in_N(vals[k : k + ln], bud), (ln, k)


def _oracle_fseq(n, start, stop, T, budget):
    """fseq by the per-index loop: every (index, prime, node)
    reads the budget exponent, the weight's residue and the node's power
    (through its inverse for a negative index) afresh."""
    F = _fn_cached(n, T, budget)
    vals = []
    for i in range(start, stop):
        pairs = []
        for p in budget.primes:
            q = p ** budget.exponent(p)
            acc = 0
            for cof, node in F.combination:
                base = node % q if i >= 0 else pow(node % q, -1, q)
                acc = (acc + cof.residue_mod(p, budget.exponent(p)) * pow(base, abs(i), q)) % q
            pairs.append(((-1) ** n * acc % q, q))
        x, M = crt_lift(pairs)
        vals.append(x - M if 2 * x > M else x)
    return SeqWindow(start, vals)


@pytest.mark.parametrize(
    "primes,e", [((2, 3, 5, 7, 11, 13), 8), ((2, 3, 5, 7), 8), ((2, 3), 6)]
)
def test_fseq_matches_per_index_oracle(primes, e):
    # production route: fseq with its per-prime residues hoisted out of the
    # index loop; oracle: the per-index loop, on windows across index 0
    budget = PrimeBudget.uniform(primes, e)
    for T in (12, 18):
        for n in range(2, 8):
            for start, stop in ((-9, 10), (-5, -1), (-1, 1), (3, 11)):
                got = fseq(n, start, stop, T, budget)
                want = _oracle_fseq(n, start, stop, T, budget)
                assert got == want, (n, start, stop, T)


def test_fseq_closed_forms_match_per_index_oracle(kgr_budget):
    # fseq's shortcut for n = 0, 1 against the weights of F_0 and F_1
    for n in (0, 1):
        for start, stop in ((-4, 6), (-9, -2), (3, 11)):
            assert fseq(n, start, stop, 16, kgr_budget) == _oracle_fseq(n, start, stop, 16, kgr_budget)


def test_fseq_needs_truncation(kgr_budget):
    with pytest.raises(PrecisionError):
        fseq(2, 0, 40, 16, kgr_budget)


# -- window decomposition -----------------------------------------------------------------


def test_decompose_TZ_unit_vector(kgr_budget):
    win = assemble_TZ([1, 0], 0, 1, 16, kgr_budget)
    assert decompose_TZ(win, 0, 16, kgr_budget) == [1, 0]


def test_decompose_TZ_constructed(kgr_budget):
    bs = [0, 0, 2, 3, 0, 0]
    win = assemble_TZ(bs, -2, 3, 16, kgr_budget)
    assert decompose_TZ(win, 2, 16, kgr_budget) == bs


def test_decompose_TZ_round_trips(kgr_budget):
    rng = random.Random(3)
    for m in range(4):
        for _ in range(3):
            bs = [rng.randint(-4, 4) for _ in range(2 * m + 2)]
            win = assemble_TZ(bs, -m, m + 1, 16, kgr_budget)
            assert decompose_TZ(win, m, 16, kgr_budget) == bs, (m, bs)


def test_basis_window_is_shifted_reflected_fseq(kgr_budget):
    # entry j of basis sequence 2i is f^(2i)_(i-j), of 2i+1 is f^(2i+1)_(j+i)
    for n in range(6):
        i = n // 2
        f = fseq(n, -8, 9, 16, kgr_budget)
        w = _basis_window(n, -2, 3, 16, kgr_budget)
        assert w.start == -2 and len(w.values) == 6
        assert list(w.values) == [f[j + i] if n % 2 else f[i - j] for j in range(-2, 4)], n


def test_decompose_TZ_round_trips_odd_length(kgr_budget):
    # assemble_TZ reads every coordinate, the last one of an odd-length list too
    win = assemble_TZ([1, 2, 3], -1, 2, 16, kgr_budget)
    assert win != assemble_TZ([1, 2], -1, 2, 16, kgr_budget)
    assert decompose_TZ(win, 1, 16, kgr_budget) == [1, 2, 3, 0]
    rng = random.Random(6)
    for m in range(3):
        for length in range(1, 2 * m + 2, 2):
            bs = [rng.randint(-4, 4) for _ in range(length - 1)] + [rng.choice([-2, -1, 1, 2])]
            win = assemble_TZ(bs, -m, m + 1, 16, kgr_budget)
            assert decompose_TZ(win, m, 16, kgr_budget) == bs + [0] * (2 * m + 2 - length), (m, bs)


def test_decompose_TZ_rejects_outside_lattice(kgr_budget):
    # after peeling b_0 = 1 the endpoint entry 2 - 1 = 1 is not divisible
    # by dtilde_1 = 2, so the window is not in the span
    win = SeqWindow(0, (1, 2))
    with pytest.raises(ValueError, match="not divisible"):
        decompose_TZ(win, 0, 16, kgr_budget)


@pytest.mark.parametrize(
    "primes,e,bs,m,T,n",
    [
        # 2^8 holds neither 4! d_4 = 5760 nor 5! d_5 = 11520: the windows read
        # 128 and 0 at their pivots, and the round trip gave [3, 0, -2, 2, 0, 0]
        ([2], 8, [3, 0, -2, 2, 0, 2], 2, 12, 5),
        ([2], 8, [3, 0, -2, 2, 1, 0], 2, 12, 4),
        # 6! d_6 = 2^10 3^4 5 7 is no residue mod 2^6 3^6: "entry at -3 = 10368
        # not divisible by 2903040" before, at T = 12 and 16
        ([2, 3], 6, [1, 0, 0, 0, 0, 0, 0, 0], 3, 12, 6),
        ([2, 3], 6, [1, 0, 0, 0, 0, 0, 0, 0], 3, 16, 6),
    ],
)
def test_basis_window_beyond_the_budget_raises(primes, e, bs, m, T, n):
    B = PrimeBudget.uniform(primes, e)
    with pytest.raises(PrecisionError, match=f"basis sequence {n} reads .* not {n}! d_{n} = {dn_tilde(n)}"):
        decompose_TZ(assemble_TZ(bs, -m, m + 1, T, B), m, T, B)
    with pytest.raises(PrecisionError, match=f"basis sequence {n} "):
        _basis_window(n, -m, m + 1, T, B)


def test_basis_window_beside_the_pivot_checks_the_modulus():
    # (2)^8 holds no 4! d_4 = 5760, and this window beside the pivot -2 read
    # (128, 128) for want of any check; a wide budget reads it exactly
    wide = PrimeBudget.uniform((2, 3, 5, 7, 11, 13), 8)
    assert assemble_TZ([0, 0, 0, 0, 1], -4, -3, 12, wide) == SeqWindow(-4, (846720, 51840))
    with pytest.raises(PrecisionError, match=r"basis sequence 4 needs a modulus of at least 2 \* 4! d_4 = 11520"):
        assemble_TZ([0, 0, 0, 0, 1], -4, -3, 12, PrimeBudget.uniform((2,), 8))


def test_numerical_poly_rejects_a_non_integer_coefficient():
    with pytest.raises(ValueError, match="coefficient 0 = 1/2 is not an integer"):
        NumericalPoly((Fraction(1, 2), 3))
