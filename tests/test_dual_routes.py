"""Differential tests: each production route against the slower route it
replaced, on unconstrained hypothesis draws over Q, Z and Zhat."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckops import MultiSeries, PrecisionError, PrimeBudget, ProfiniteApprox, ProfiniteRing, Q
from ckops import TruncSeries, TruncationExhausted, Z, adams_series, dn, in_Opnm_phi, in_Qn, in_Qnm
from ckops import Composer, b_map, desuspend, interval_in_N, iter_partial, lg_decompose, lg_series, phi
from ckops import s_criterion, s_oracle, series, star_sum, tower_member
from ckops.arith import crt_lift
from ckops.multisym import subst_first
from ckops.series import adams_coordinates
from ckops.suites import phi_inverse, random_membership_witness
from oracles import compose_by_matvec, compose_by_scaling, in_Opnm_phi_by_fractions, in_Qnm_by_fractions
from oracles import iter_partial_by_subsets
from oracles import multi_mul_by_terms
from oracles import lift_check, phi_by_steps, s_criterion_by_windows, subst_first_by_powers

_BUDGET = PrimeBudget.uniform((2, 3, 5), 4)
_ZHAT = ProfiniteRing(_BUDGET)


@st.composite
def profinite(draw, least=0, most=None):
    """A Zhat value whose precision at each prime is anywhere from ``least``
    digits to ``most``, the budget's by default, its residue anything below
    that modulus."""
    prec = {p: draw(st.integers(least, e if most is None else most))
            for p, e in _BUDGET.full_prec.items()}
    res = {p: draw(st.integers(0, p**k - 1)) for p, k in prec.items()}
    return ProfiniteApprox(_BUDGET, res, prec)


_COEFFS = {
    "Q": st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)),
    "Z": st.integers(-10**6, 10**6),
    "Zhat": profinite(),
}
_RINGS = {"Q": Q, "Z": Z, "Zhat": _ZHAT}


@st.composite
def series_and_power(draw, ring):
    """(G, n) with T <= 9 and n from 0 to T + 1: n = 0, T = n and T < n
    all occur."""
    T = draw(st.integers(0, 9))
    coeffs = draw(st.lists(_COEFFS[ring], min_size=T + 1, max_size=T + 1))
    return TruncSeries(_RINGS[ring], T, coeffs), draw(st.integers(0, T + 1))


@pytest.mark.parametrize("ring", ["Q", "Z"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_phi_band_equals_phi_by_steps_exactly(ring, data):
    assert series._phi_band.cache_info().maxsize is not None
    G, n = data.draw(series_and_power(ring))
    if G.trunc < n:
        for route in (phi, phi_by_steps):
            with pytest.raises(TruncationExhausted, match=f"phi\\^{n} needs truncation >= {n}"):
                route(G, n)
        return
    got, want = phi(G, n), phi_by_steps(G, n)
    assert got.trunc == want.trunc == G.trunc - n
    assert got.coeffs == want.coeffs


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_phi_band_on_zhat_agrees_within_the_old_precision(data):
    # combine skips the zero weight of a_0, so the band keeps at least the
    # step loop's precision at every prime, and the residues agree modulo it
    G, n = data.draw(series_and_power("Zhat"))
    if G.trunc < n:
        with pytest.raises(TruncationExhausted):
            phi(G, n)
        return
    got, want = phi(G, n), phi_by_steps(G, n)
    assert got.trunc == want.trunc
    for new, old in zip(got.coeffs, want.coeffs):
        for p, k in old.prec.items():
            assert new.prec[p] >= k
            assert new.residue[p] % p**k == old.residue[p]


def test_phi_constant_term_ignores_a0_precision():
    # a_0 known to 1 digit at p = 2 and a_1 to 8: [x^0] Phi(G) = -a_1 keeps
    # all 8 digits, where the step loop's 0 * a_0 term cut it to 1
    B = PrimeBudget.uniform([2], 8)
    ring = ProfiniteRing(B)
    G = TruncSeries(ring, 1, [ProfiniteApprox(B, {2: 1}, {2: 1}), ProfiniteApprox(B, {2: 12})])
    assert phi_by_steps(G).coeffs[0].prec == {2: 1}
    [c0] = phi(G).coeffs
    assert c0.prec == {2: 8} and c0.residue == {2: -12 % 256}


def test_phi_route_verdicts_no_longer_limited_by_a0():
    # a_0 = 0 mod 2 (1 digit) and a_1 = 12: [x^0] Phi(G) = -12 is nonzero,
    # so v(Phi G) = 0 < m - n = 1; the step loop saw 0 mod 2 and said True
    B = PrimeBudget.uniform([2], 5)
    ring = ProfiniteRing(B)
    G = TruncSeries(ring, 1, [ProfiniteApprox(B, {2: 0}, {2: 1}), ProfiniteApprox(B, {2: 12})])
    assert not in_Opnm_phi(G, 1, 2)
    # a_0 with no digits at p = 2 but nonzero mod 3 is a known nonzero input
    # coefficient, and Phi(G) = -a_1 = 0 is known: the step loop raised
    # "coefficient 0 has no digits at p=2" on Phi(G)
    B = PrimeBudget.uniform([2, 3], 2)
    ring = ProfiniteRing(B)
    a0 = ProfiniteApprox(B, {2: 0, 3: 1}, {2: 0, 3: 1})
    G = TruncSeries(ring, 1, [a0, ring.zero()])
    with pytest.raises(PrecisionError, match="coefficient 0 has no digits at p=2"):
        phi_by_steps(G).is_zero()
    assert in_Opnm_phi(G, 1, 1)


def test_phi_route_ignores_the_constant_term():
    # Phi^n never reads a_0: any a_0 over Q and Z, and a Zhat a_0 without digits
    for a0 in (0, 5, -7):
        assert in_Opnm_phi(TruncSeries(Q, 3, [a0, 1, 0, 0]), 1, 1)
        assert in_Opnm_phi(TruncSeries(Z, 3, [a0, 1, 0, 0]), 1, 1)
    B = PrimeBudget.uniform([2], 4)
    ring = ProfiniteRing(B)
    blind = ProfiniteApprox(B, {2: 0}, {2: 0})
    G = TruncSeries(ring, 2, [blind, ring.coerce(3), ring.zero()])
    assert [c.residue[2] for c in phi(G).coeffs] == [13, 3]
    assert in_Opnm_phi(G, 1, 1)
    # an unknown a_1, which Phi reads, is still named by its input degree
    G = TruncSeries(ring, 2, [ring.zero(), blind, ring.coerce(3)])
    with pytest.raises(PrecisionError, match="coefficient 1 has no digits at p=2"):
        in_Opnm_phi(G, 1, 1)


@st.composite
def partial_input(draw, ring):
    """A univariate series with T <= 7, or a 2-3 variable MultiSeries with
    T <= 4 whose variables after the first are the tail; one draw in eight
    is the zero series.  Zhat values may lack digits, have at least one at
    every prime, or be integers.  The MultiSeries leaves out a Zhat zero
    without digits, which its constructor rejects."""
    R = _RINGS[ring]
    coeff = _COEFFS[ring]
    if ring == "Zhat":
        coeff = st.one_of(coeff, profinite(1), _COEFFS["Z"])
    if draw(st.integers(0, 7)) == 0:
        coeff = st.just(R.zero())
    if draw(st.booleans()):
        T = draw(st.integers(0, 7))
        return TruncSeries(R, T, draw(st.lists(coeff, min_size=T + 1, max_size=T + 1)))
    nvars, T = draw(st.integers(2, 3)), draw(st.integers(0, 4))
    key = st.lists(st.integers(0, T), min_size=nvars, max_size=nvars).map(tuple)
    coeffs = draw(st.dictionaries(key.filter(lambda k: sum(k) <= T), coeff, min_size=1, max_size=6))
    return MultiSeries(R, nvars, T, {k: v for k, v in coeffs.items() if not _unknown(v)})


def _unknown(v) -> bool:
    return isinstance(v, ProfiniteApprox) and not any(v.residue.values()) and 0 in v.prec.values()


def _exact(M: MultiSeries):
    """Ring, arity, truncation and every coefficient with its type, a
    profinite one as residues and precisions."""
    coeffs = {k: v.to_json() if isinstance(v, ProfiniteApprox) else (type(v), v)
              for k, v in M.coeffs.items()}
    return M.ring, M.nvars, M.trunc, coeffs


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_iter_partial_equals_subset_sum_oracle(data):
    ring = data.draw(st.sampled_from(sorted(_RINGS)))
    G, m = data.draw(partial_input(ring)), data.draw(st.integers(0, 3))
    values = G.coeffs.values() if isinstance(G, MultiSeries) else G.coeffs
    blind = [v for v in values if isinstance(v, ProfiniteApprox) and 0 in v.prec.values()]
    # an unknown input value raises in both routes; at m >= 1 so does any
    # value without digits at some prime, which the subset sum cancels to
    # an unknown zero
    if any(map(_unknown, blind)) or (blind and m):
        for route in (iter_partial, iter_partial_by_subsets):
            with pytest.raises(PrecisionError, match="has no digits at p="):
                route(G, m)
        return
    if blind:
        # m = 0 only keeps the monomials with a positive x_1 exponent; the
        # oracle's G - G(0, ...) cancels an x_1-free one to an unknown zero
        return
    _agree_within_precision(iter_partial(G, m), iter_partial_by_subsets(G, m))


def _agree_within_precision(got: MultiSeries, want: MultiSeries):
    """Production against an oracle whose cancellations v - v keep zeros
    known only to the digits of v, where production knows the cancellation
    is exact: equal coefficients, types, residues and precisions at every
    key where either side holds a value nonzero within its precision; at
    any other key a value only the oracle holds is zero within its
    precision, and production's precision is never below the oracle's.  A
    key a side does not hold reads as the exact zero."""
    assert (got.ring, got.nvars, got.trunc) == (want.ring, want.nvars, want.trunc)
    R = got.ring
    exact = _exact(got)[3], _exact(want)[3]
    for key in got.coeffs.keys() | want.coeffs.keys():
        g, w = got.coeffs.get(key, R.zero()), want.coeffs.get(key, R.zero())
        if not (R.is_zero(g) and R.is_zero(w)):
            assert exact[0].get(key) == exact[1].get(key), key
        elif R is _ZHAT:
            assert all(g.prec[p] >= k for p, k in w.prec.items()), key


@pytest.mark.parametrize("T,n", [(10, 3), (10, 4), (12, 3), (12, 4)])
def test_iter_partial_at_benchmark_sizes_equals_subset_sum_oracle(T, n):
    # the membership workload's slowest checks: partial^(n-1) at T = 10..12
    G, _ = random_membership_witness(random.Random(T * 10 + n), T, n)
    assert _exact(iter_partial(G, n - 1)) == _exact(iter_partial_by_subsets(G, n - 1))


def _key(n: int, d: int):
    """An n-variable exponent tuple of total degree d."""
    cuts = st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1).map(sorted)
    return cuts.map(lambda c: tuple(b - a for a, b in zip([0, *c], [*c, d])))


def _cancelling(ring: str):
    """Values of ``ring``; a Zhat value may lack digits at some primes, and
    half of them are 0 or 1 at each prime, so that sums of products cancel."""
    coeff = _COEFFS[ring]
    if ring == "Zhat":
        bits = coeff.map(lambda v: ProfiniteApprox(
            _BUDGET, {p: min(r, 1) for p, r in v.residue.items()}, v.prec))
        coeff = st.one_of(coeff, bits)
    return coeff


@st.composite
def product_factor(draw, ring, n):
    """An n-variable MultiSeries with T <= 6 and up to 6 terms of any degree
    up to T, plus up to 2 keys of degree T + 1..T + 3 put straight into
    ``coeffs``.  Values are ``_cancelling``; the unknown zeros the
    constructor rejects are left out."""
    R, T = _RINGS[ring], draw(st.integers(0, 6))
    coeff = _cancelling(ring)
    terms = st.integers(0, T).flatmap(lambda d: _key(n, d))
    above = st.integers(T + 1, T + 3).flatmap(lambda d: _key(n, d))
    M = MultiSeries(R, n, T, _known(draw(st.dictionaries(terms, coeff, min_size=1, max_size=6))))
    M.coeffs.update(_known(draw(st.dictionaries(above, coeff, max_size=2))))
    return M


def _known(coeffs: dict) -> dict:
    return {k: v for k, v in coeffs.items() if not _unknown(v)}


# an unknown zero is named by its exponent tuple, never as a bare value
_NAMED = r"coefficient \([\d, ]+\) has no digits at p=\d+: zero or not is unknown"


@st.composite
def product(draw):
    """(A, B) over one ring with one arity: B a ``product_factor`` or, one
    time in four, a scalar."""
    ring = draw(st.sampled_from(sorted(_RINGS)))
    n = draw(st.integers(1, 4))
    A = draw(product_factor(ring, n))
    scalar = st.one_of(_COEFFS[ring], st.integers(-3, 3))
    return A, draw(scalar if draw(st.integers(0, 3)) == 0 else product_factor(ring, n))


# a Zhat zero known to one digit at every prime of the budget's four
_ZERO_1 = ProfiniteApprox(_BUDGET, {2: 0, 3: 0, 5: 0}, {2: 1, 3: 1, 5: 1})


@settings(max_examples=100, deadline=None)
@given(case=product())
# the product is that zero, which both routes keep
@example(case=(MultiSeries(_ZHAT, 1, 1, {(1,): _ZERO_1}), MultiSeries(_ZHAT, 1, 1, {(0,): _ZERO_1})))
def test_multiseries_mul_equals_tuple_key_oracle(case):
    # the packed-integer kernel against the tuple-key double loop: equal
    # coefficient dicts, or both raise on a Zhat sum that is an unknown zero
    A, B = case
    try:
        want = _exact(multi_mul_by_terms(A, B))
    except PrecisionError:
        with pytest.raises(PrecisionError, match=_NAMED):
            A * B
        return
    assert _exact(A * B) == want


@st.composite
def substitution(draw, ring):
    """(G, P, out_nvars, tail) for subst_first: G univariate with T <= 7,
    or with 1-2 tail variables and T <= 4, 1 to 6 terms; 1-3 head
    variables, so out_nvars is 1-5; P the star sum of the head or up to 5
    terms of degree 1..T + 1 with integer values, and over Zhat also
    ``_cancelling`` ones.  Unknown zeros are left out of both."""
    R, nvars = _RINGS[ring], draw(st.integers(1, 3))
    T, head = draw(st.integers(0, 7 if nvars == 1 else 4)), draw(st.integers(1, 3))
    out_n = head + nvars - 1
    terms = st.integers(0, T).flatmap(lambda d: _key(nvars, d))
    G = MultiSeries(R, nvars, T, _known(draw(st.dictionaries(terms, _cancelling(ring), min_size=1,
                                                              max_size=6))))
    if draw(st.booleans()):
        return G, star_sum(range(head), out_n, T, R), out_n, range(head, out_n)
    value = st.integers(-3, 3).filter(bool)
    if ring == "Zhat":
        value = st.one_of(value, _cancelling(ring))
    terms = st.integers(1, T + 1).flatmap(lambda d: _key(out_n, d))
    P = MultiSeries(R, out_n, T, _known(draw(st.dictionaries(terms, value, min_size=1, max_size=5))))
    return G, P, out_n, range(head, out_n)


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(sorted(_RINGS)).flatmap(substitution))
# G = a x with a 1 mod 5 and no digits at 2 and 3, P the kept zero times x:
# the power P is stored, and P times a is an unknown zero at (1,)
@example(case=(MultiSeries(_ZHAT, 1, 1, {(1,): ProfiniteApprox(_BUDGET, {2: 0, 3: 0, 5: 1},
                                                                {2: 0, 3: 0, 5: 4})}),
               MultiSeries(_ZHAT, 1, 1, {(1,): _ZERO_1}), 1, range(1, 1)))
def test_subst_first_equals_power_chain_oracle(case):
    # the packed power chain against one MultiSeries per step: equal
    # coefficient dicts, residues and precisions included, or both raise
    # naming a tuple key.  Where one sum cancels to unknown zeros at several
    # keys, the oracle names the first in its tuple-set order and the packed
    # chain the first in its own, so the two may name different keys
    G, P, out_n, tail = case
    try:
        want = _exact(subst_first_by_powers(G, P, out_n, tail))
    except PrecisionError as e:
        assert re.fullmatch(_NAMED, str(e))
        with pytest.raises(PrecisionError, match=_NAMED):
            subst_first(G, P, out_n, tail)
        return
    assert _exact(subst_first(G, P, out_n, tail)) == want


@st.composite
def criterion_input(draw):
    """(G, primes) with T <= 24 over Z, integral Q, or Zhat at a budget
    (2,3,5)^e, e <= 4, where up to three (coefficient, prime) pairs keep
    0..e digits.  G is zero, small random values or a combination of Adams
    series, perhaps perturbed at the top degree; ``primes`` is None, one
    prime or several, unsorted."""
    T = draw(st.integers(0, 24))
    shape = draw(st.sampled_from(["zero", "random", "adams"]))
    vals = [0] * (T + 1)
    if shape == "random":
        vals = draw(st.lists(st.integers(-3, 3), min_size=T + 1, max_size=T + 1))
    elif shape == "adams":
        terms = st.tuples(st.sampled_from([1, -1, 2, 3, 6, 7, 11, 13, 29]), st.integers(-5, 5))
        for r, c in draw(st.lists(terms, min_size=1, max_size=3)):
            vals = [v + c * a for v, a in zip(vals, adams_series(r, T).coeffs)]
    vals[T] += draw(st.sampled_from([0, 0, 1, 2, 3, 4, 8]))
    ring = draw(st.sampled_from(["Z", "Q", "Zhat"]))
    pool = [2, 3, 5] if ring == "Zhat" else [2, 3, 5, 7, 11, 13]
    primes = draw(st.one_of(st.none(), st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                                                  unique=True)))
    if ring != "Zhat":
        coerce = Fraction if ring == "Q" else int
        return TruncSeries(_RINGS[ring], T, [coerce(v) for v in vals]), primes
    e = draw(st.integers(1, 4))
    budget = PrimeBudget.uniform((2, 3, 5), e)
    prec = [dict(budget.full_prec) for _ in vals]
    lossy = st.tuples(st.integers(0, T), st.sampled_from(budget.primes), st.integers(0, e))
    for i, p, k in draw(st.lists(lossy, max_size=3)):
        prec[i][p] = k
    coeffs = [ProfiniteApprox(budget, {p: v % p**k for p, k in pr.items()}, pr)
              for v, pr in zip(vals, prec)]
    return TruncSeries(ProfiniteRing(budget), T, coeffs), primes


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_s_criterion_equals_window_sums_exactly(data):
    # the running sums against every window summed afresh: the same
    # verdict, the same first witness and the same skipped instances
    G, primes = data.draw(criterion_input())
    assert s_criterion(G, primes) == s_criterion_by_windows(G, primes)


def _exact_series(S: TruncSeries):
    """Ring, truncation and every coefficient with its type, a profinite
    one as residues and precisions."""
    return S.ring, S.trunc, [(c.residue, c.prec) if isinstance(c, ProfiniteApprox) else (type(c), c)
                             for c in S.coeffs]


def _composition_coeff(ring: str):
    """Values of ``ring``, a fifth of them zero; a Zhat value has any
    precision, or none or one digit at every prime."""
    coeff = _COEFFS[ring]
    if ring == "Zhat":
        coeff = st.one_of(coeff, profinite(0, 0), profinite(1, 1))
    return st.one_of(coeff, coeff, coeff, coeff, st.just(_RINGS[ring].zero()))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compose_equals_one_shot_kernel_and_scaling_oracles(data):
    # the table prepared once in Composer.__init__ against the kernel that
    # reads it afresh and against one scaled series per term: right factors
    # of truncation below, at and above the left one's, several on one
    # Composer in any order, and the first composed again at the end, so a
    # prepared table changed by any call would show.  A Q Composer also
    # takes a Z right factor, coerced into Q
    ring = data.draw(st.sampled_from(sorted(_RINGS)))
    R, coeff, T = _RINGS[ring], _composition_coeff(ring), data.draw(st.integers(0, 24))
    C = Composer(TruncSeries(R, T, data.draw(st.lists(coeff, min_size=T + 1, max_size=T + 1))))
    truncs = data.draw(st.permutations([max(T - 1, 0), T, T + 1]))
    truncs += data.draw(st.lists(st.integers(0, T), min_size=1, max_size=2))
    truncs += data.draw(st.lists(st.integers(0, T + 2), max_size=2))
    rights = [TruncSeries(R, t, data.draw(st.lists(coeff, min_size=t + 1, max_size=t + 1)))
              for t in truncs]
    if ring == "Q":
        t = data.draw(st.integers(0, T + 1))
        rights.append(TruncSeries(Z, t, data.draw(st.lists(_composition_coeff("Z"), min_size=t + 1,
                                                            max_size=t + 1))))
    table = C._table
    got = [_exact_series(C.compose(H2)) for H2 in rights]
    assert _exact_series(C.compose(rights[0])) == got[0]
    assert C._table is table and C._table == C.ring.prepare([U.coeffs for U in C.U])
    for H2, g in zip(rights, got):
        assert g[1] == min(T, H2.trunc)
        assert g == _exact_series(compose_by_matvec(C, H2)) == _exact_series(compose_by_scaling(C, H2))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_b_map_equals_lg_decompose_on_q(data):
    # the cached Stirling band against back substitution; a window past the
    # truncation reads G as a polynomial, G at truncation N padded with zeros
    assert series._stirling_band.cache_info().maxsize is not None
    T = data.draw(st.integers(0, 9))
    G = TruncSeries(Q, T, data.draw(st.lists(_COEFFS["Q"], min_size=T + 1, max_size=T + 1)))
    N = data.draw(st.integers(0, T + 3))
    want = lg_decompose(TruncSeries(Q, max(N, T), G.coeffs)).values[:N + 1]
    got = b_map(G, N).values
    assert [(type(v), v) for v in got] == [(type(v), v) for v in want]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_b_map_on_zhat_agrees_with_an_integer_lift(data):
    # b is an integer combination, so any integer lift of G maps to a lift
    # of b(G): every output agrees with it modulo its own precision
    T, N = data.draw(st.integers(0, 9)), data.draw(st.integers(0, 12))
    coeffs = data.draw(st.lists(_composition_coeff("Zhat"), min_size=T + 1, max_size=T + 1))
    lifts = []
    for c in coeffs:
        x, m = crt_lift([(c.residue[p], p**k) for p, k in c.prec.items()])
        lifts.append(x + m * data.draw(st.integers(-3, 3)))
    got = b_map(TruncSeries(_ZHAT, T, coeffs), N).values
    want = b_map(TruncSeries(Z, T, lifts), N).values
    assert len(got) == len(want) == N + 1
    for v, w in zip(got, want):
        assert all(v.residue[p] == w % p**k for p, k in v.prec.items())


# -- oracle-free: every Zhat route is sound on random integer lifts ---------


def _lift_budget(rng: random.Random) -> PrimeBudget:
    primes = rng.choice([(2,), (3,), (2, 3), (2, 3, 5)])
    return PrimeBudget(primes, tuple(rng.randint(2, 5) for _ in primes))


def _lift_value(rng: random.Random, B: PrimeBudget, exact: bool = False) -> ProfiniteApprox:
    """A Zhat value; unless ``exact``, below full precision at a prime two
    times in five and without digits one time in twenty.  Residues are
    often 0 or divisible by p, so sums and products cancel to zeros known
    to fewer digits."""
    prec, res = {}, {}
    for p, e in B.full_prec.items():
        u = rng.random()
        prec[p] = e if exact or u < 0.6 else (0 if u < 0.65 else rng.randint(1, e - 1))
        res[p] = rng.choice([0, p * rng.randrange(p**e), rng.randrange(p**e)])
    return ProfiniteApprox(B, res, prec)


def _lift_series(rng: random.Random, B: PrimeBudget, T: int, exact: bool = False) -> TruncSeries:
    return TruncSeries(ProfiniteRing(B), T, [_lift_value(rng, B, exact) for _ in range(T + 1)])


def _lift_multi(rng: random.Random, B: PrimeBudget, nvars: int, T: int, least: int) -> MultiSeries:
    terms = {}
    for _ in range(rng.randint(1, 5)):
        d = rng.randint(least, T)
        cuts = sorted(rng.randint(0, d) for _ in range(nvars - 1))
        terms[tuple(b - a for a, b in zip([0, *cuts], [*cuts, d]))] = _lift_value(rng, B)
    return MultiSeries(ProfiniteRing(B), nvars, T, _known(terms))


def _subst_case(rng, B):
    nvars, head = rng.randint(1, 2), rng.randint(1, 2)
    out_n, T = head + nvars - 1, rng.randint(1, 7 if nvars == 1 else 4)
    G, P = _lift_multi(rng, B, nvars, T, 0), _lift_multi(rng, B, out_n, T, 1)
    return lambda G, P: subst_first(G, P, out_n, range(head, out_n)), (G, P)


def _compose_case(rng, B):
    # digits below full precision on the left, on the right, or on both
    T, side = rng.randint(0, 7), rng.randrange(3)
    H = _lift_series(rng, B, T, exact=side == 1)
    H2 = _lift_series(rng, B, rng.randint(0, T + 1), exact=side == 0)
    return lambda H, H2: Composer(H).compose(H2), (H, H2)


def _univariate_case(route, least=0):
    def case(rng, B):
        return route, (_lift_series(rng, B, rng.randint(least, 7)),)
    return case


_LIFT_CASES = {
    "iter_partial-1": _univariate_case(lambda G: iter_partial(G, 1)),
    "iter_partial-2": _univariate_case(lambda G: iter_partial(G, 2)),
    "subst_first": _subst_case,
    "phi-1": _univariate_case(lambda G: phi(G, 1), 1),
    "phi-2": _univariate_case(lambda G: phi(G, 2), 2),
    "desuspend": _univariate_case(lambda G: desuspend(G, 2), 1),
    "adams_coordinates": _univariate_case(adams_coordinates),
    "b_map": _univariate_case(lambda G: b_map(G, G.trunc + 2)),
    "compose": _compose_case,
}


@pytest.mark.parametrize("route", sorted(_LIFT_CASES))
def test_zhat_route_is_sound_on_random_lifts(route):
    # each output digit a route claims holds for every integer lift of its
    # input (oracles.lift_check): no oracle route, so it covers every
    # truncation, budget and precision the draws reach.  A route that
    # raises PrecisionError claims nothing, but most draws must be checked
    rng = random.Random(f"lift {route}")
    checked = 0
    for draw in range(60):
        B = _lift_budget(rng)
        fn, args = _LIFT_CASES[route](rng, B)
        bad = lift_check(fn, args, B, rng)
        assert not bad, (draw, args, bad[0])
        checked += bad is not None
    assert checked >= 20


@st.composite
def phi_route_input(draw):
    """(G, n, m) over Q with 1 <= n <= T <= 14, or T = n - 1, and m from
    n - 2 to n + 3.  G is the zero series, or an integer series plus
    rational lg_r (r < n), perhaps plus a Phi-inverted half-integer bomb,
    with a_0 zero, a nonzero integer or a non-integer, and perhaps a
    non-integral top coefficient."""
    T = draw(st.integers(1, 14))
    n = draw(st.integers(1, T + 1))
    m = draw(st.integers(n - 2, n + 3))
    if draw(st.integers(0, 9)) == 0:
        return TruncSeries.zero(Q, T), n, m
    G = TruncSeries(Q, T, [0] + draw(st.lists(st.integers(-6, 6), min_size=T, max_size=T)))
    for r in range(1, min(n, T + 1)):
        G = G + lg_series(r, T).scale(draw(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))))
    if draw(st.booleans()):
        j, c = draw(st.integers(1, max(1, T - n))), draw(st.sampled_from([1, 3, 5]))
        B = TruncSeries.monomial(Q, T, j, Fraction(c, 2))
        for _ in range(n):
            B = phi_inverse(B)
        G = G + B.truncate(T)
    a0 = draw(st.sampled_from([0, 0, 3, Fraction(1, 2), Fraction(-7, 3)]))
    top = draw(st.sampled_from([0, 0, Fraction(1, 2), Fraction(2, 3)]))
    return G + TruncSeries(Q, T, [a0] + [0] * (T - 1) + [top]), n, m


def _verdict(route, *args):
    """A route's verdict, or its exception's type and message."""
    try:
        return route(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(case=phi_route_input())
def test_phi_route_on_integer_numerators_equals_fraction_oracle(case):
    G, n, m = case
    got = _verdict(in_Opnm_phi, G, n, m)
    assert got == _verdict(in_Opnm_phi_by_fractions, G, n, m)
    if G.trunc < n:
        assert got == (PrecisionError, f"need truncation >= {n}, have {G.trunc}")


@st.composite
def derivative_route_input(draw):
    """(G, n, m) over Q (half the draws), Z or Zhat with n from -1 to 4,
    T from n - 1 to 7 (so n < 1 and T < n both occur) and m from n - 2 to
    n + 3.  Over Q, G is an integer series plus rational lg_r (r < n),
    usually plus a rational monomial of degree >= n; a Zhat series holds
    every digit, or each value anywhere from no digit to all of them.  a_0
    is the exact zero three times in four, else a drawn value."""
    ring = draw(st.sampled_from(["Q", "Q", "Z", "Zhat"]))
    n = draw(st.integers(-1, 4))
    T = draw(st.integers(max(0, n - 1), 7))
    m = draw(st.integers(n - 2, n + 3))
    R = _RINGS[ring]
    if ring == "Q":
        G = TruncSeries(Q, T, draw(st.lists(st.integers(-6, 6), min_size=T + 1, max_size=T + 1)))
        for r in range(1, min(n, T + 1)):
            G = G + lg_series(r, T).scale(draw(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))))
        if draw(st.integers(0, 3)):  # partial^(n-1) x^j = 0 for j < n
            G = G + TruncSeries.monomial(Q, T, draw(st.integers(min(max(n, 0), T), T)), draw(_COEFFS["Q"]))
    else:
        values = profinite(least=4) if ring == "Zhat" and draw(st.booleans()) else _COEFFS[ring]
        G = TruncSeries(R, T, draw(st.lists(values, min_size=T + 1, max_size=T + 1)))
    a0 = draw(_COEFFS[ring]) if draw(st.integers(0, 3)) == 0 else R.zero()
    return TruncSeries(R, T, [a0, *G.coeffs[1:]]), n, m


_NO_DIGIT = ProfiniteApprox(_BUDGET, {2: 0, 3: 0, 5: 0}, {2: 0, 3: 2, 5: 1})


@settings(max_examples=300, deadline=None)
@given(case=derivative_route_input())
@example(case=(TruncSeries(Q, 3, [0, 0, Fraction(1, 2)]), 0, 1))  # n < 1, not integral
@example(case=(TruncSeries(Q, 3, [0, 0, Fraction(1, 2)]), 4, 2))  # T < n
@example(case=(TruncSeries(Q, 4, [Fraction(1, 3), 1]), 2, 1))  # nonzero a_0
@example(case=(TruncSeries(_ZHAT, 3, [_ZHAT.zero(), 1, _NO_DIGIT, 2]), 2, 1))  # a value without digits
def test_derivative_route_on_integer_numerators_equals_fraction_oracle(case):
    G, n, m = case
    assert _verdict(in_Qnm, G, n, m) == _verdict(in_Qnm_by_fractions, G, n, m)


# -- oracle-free: every membership test decides a group ----------------------

_GROUP_T = 10
_GROUP_BUDGET = PrimeBudget.uniform((2, 3), 3)


def _z_draw(rng: random.Random, T: int, units) -> TruncSeries:
    """A Z series: small random values, perhaps zero in degrees 1..k - 1, a
    multiple of d_j x^j, or a combination of unit Adams series, perhaps
    bumped at one degree."""
    kind = rng.choice(["random", "tail", "dn", "adams", "bumped"])
    if kind in ("random", "tail"):
        k = rng.randint(1, T + 1) if kind == "tail" else 1
        vals = [rng.randint(-3, 3) for _ in range(T + 1)]
        return TruncSeries(Z, T, vals[:1] + [0] * (k - 1) + vals[k:])
    if kind == "dn":
        j = rng.randint(0, T)
        return TruncSeries(Z, T, [0] * j + [dn(j).value * rng.randint(-3, 3)])
    G = TruncSeries.zero(Z, T)
    for _ in range(rng.randint(1, 3)):
        G = G + adams_series(rng.choice(units), T).scale(rng.randint(-9, 9))
    if kind == "bumped":
        G = G + TruncSeries.monomial(Z, T, rng.randint(0, T)).scale(rng.randint(1, 9))
    return G


def _q_draw(rng: random.Random, T: int, units) -> TruncSeries:
    """A Q series without constant term: the sum of one to three of a Z
    draw less its constant, an integer multiple of x^j, lg_1 or lg_2, and
    x^j/2 or x^j/3."""
    G = TruncSeries.zero(Q, T)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["z", "monomial", "lg", "fraction"])
        if kind == "z":
            atom = TruncSeries(Q, T, [0, *_z_draw(rng, T, units).coeffs[1:]])
        elif kind == "lg":
            atom = lg_series(rng.randint(1, 2), T).scale(rng.randint(-3, 3))
        else:
            scale = rng.randint(-3, 3) if kind == "monomial" else Fraction(1, rng.choice([2, 3]))
            atom = TruncSeries.monomial(Q, T, rng.randint(1, T)).scale(scale)
        G = G + atom
    return G


def _criterion_member(G: TruncSeries) -> bool:
    rep = s_criterion(G, primes=list(_GROUP_BUDGET.primes))
    assert not rep.skipped
    return rep.ok


_GROUP_TESTS = {
    "s_criterion": _criterion_member,
    "tower_member": lambda G: tower_member(G, 2, _GROUP_BUDGET),
    "in_Opnm_phi": lambda G: in_Opnm_phi(G, 2, 4),
    "in_Qn": lambda G: in_Qn(G, 2),
    "in_Qnm": lambda G: in_Qnm(G, 3, 4),
}
# the derivative routes need a zero constant term, and over Z every series
# is in Q^n: they draw from Q
_GROUP_DRAWS = {"in_Qn": _q_draw, "in_Qnm": _q_draw}


@pytest.mark.parametrize("name", sorted(_GROUP_TESTS))
def test_membership_is_a_group(name):
    # member + member is a member and member + non-member is not, at one
    # truncation, budget and set of primes; no second route is consulted
    member, draw = _GROUP_TESTS[name], _GROUP_DRAWS.get(name, _z_draw)
    rng = random.Random(name)
    draws = [draw(rng, _GROUP_T, [1, -1, 5, 7, 11, 13, -5]) for _ in range(60)]
    members = [G for G in draws if member(G)]
    others = [G for G in draws if not member(G)]
    assert len(members) >= 10 and len(others) >= 10
    for a, b in zip(members, members[1:] + members[:1]):
        assert member(a + b)
    for a in members:
        for b in others[:10]:
            assert not member(a + b)


def test_interval_membership_is_a_group():
    # at the budgets of test_interval_matches_all_units_oracle, vectors of
    # length 1..5 drawn as there (a combination of unit power rows, half of
    # them with one entry moved): members are closed under sums and
    # negation, and a member plus a non-member is not a member.  Below
    # length p every vector is a member, so only p = 2, 3, 5 see others
    rng, mixed = random.Random("interval group"), 0
    for p, e in ((2, 8), (3, 5), (5, 3), (7, 3)):
        q, bud = p**e, PrimeBudget.uniform([p], e)
        units = [r for r in range(1, q) if r % p]
        for n in range(1, 6):
            draws = []
            for _ in range(12):
                v = [0] * n
                for r in rng.sample(units, 3):
                    c = rng.randrange(q)
                    v = [x + c * pow(r, j, q) for j, x in enumerate(v)]
                if rng.random() < 0.5:
                    v[rng.randrange(n)] += rng.randrange(1, q)
                draws.append(v)
            members = [v for v in draws if interval_in_N(v, bud)]
            others = [v for v in draws if not interval_in_N(v, bud)]
            assert members, (p, n)
            for a, b in zip(members, members[1:] + members[:1]):
                assert interval_in_N([x + y for x, y in zip(a, b)], bud), (p, a, b)
                assert interval_in_N([-x for x in a], bud), (p, a)
            for a in members:
                for b in others:
                    assert not interval_in_N([x + y for x, y in zip(a, b)], bud), (p, a, b)
            mixed += len(members) * len(others)
    assert mixed >= 100


def test_s_oracle_domain_against_tower_member():
    # both test windows of the Phi-image lattices mod p^e; they decide the
    # same set when p^e divides T + 1, and elsewhere the tower's is smaller
    rng = random.Random(6)
    within, beyond = set(), 0
    for trial in range(400):
        p, e, T = rng.choice([2, 3, 5]), rng.randint(1, 3), rng.randint(0, 10)
        G = _z_draw(rng, T, [u for u in (1, -1, 7, 11, 13, 17, 19, 23) if u % p])
        tower, oracle = tower_member(G, 1, PrimeBudget((p,), (e,))), s_oracle(G, p, e, T)
        if (T + 1) % p**e == 0:
            assert tower == oracle, (trial, p, e, T)
            within.add(tower)
        else:
            assert oracle or not tower, (trial, p, e, T)
            beyond += oracle and not tower
    assert within == {True, False} and beyond
