import math
import random
from fractions import Fraction

import pytest

from ckops import (
    BasisSeries,
    PrecisionError,
    PrimeBudget,
    ProfiniteApprox,
    ProfiniteRing,
    Q,
    TruncSeries,
    TruncationExhausted,
    Z,
    a_min,
    adams_series,
    compose_op,
    construct_Fn,
    construct_Gn,
    decompose_S0,
    dn,
    dn_tilde,
    phi,
    s_criterion,
    s_oracle,
    solve_vandermonde,
    stable_mult_check,
    tower_member,
    twisted_adams,
    vp,
    vp_factorial,
)
from ckops import stable
from ckops.arith import crt_lift, gbinom, largest_prime_power, set_primes_upto
from ckops.linalg import ModMatrix, howell_form, in_row_span
from ckops.series import exact_int
from oracles import (
    _phi_image_lattice,
    _phi_image_rows,
    phi_by_steps,
    phi_image_walk,
    span_enumerate,
    twisted_rule,
    vdm_value,
)


def prof(budget, n):
    return ProfiniteApprox.from_int(budget, n)


def to_profinite(G, budget):
    ring = ProfiniteRing(budget)
    return G.map_coeffs(lambda v: prof(budget, 1) * v, ring)


# -- the integers d_n -------------------------------------------------------------


def test_dn_table():
    assert [dn(n).value for n in range(8)] == [1, 2, 12, 8, 240, 96, 4032, 1152]
    assert dn(2).per_prime == {2: 2, 3: 1}
    assert dn(6).per_prime == {2: 6, 3: 2, 7: 1}


def test_dn_vanishing_beyond_p_minus_one():
    for n in range(10):
        for p in (11, 13, 17):
            if p - 1 > n:
                assert dn(n).per_prime.get(p, 0) == 0


def test_dn_matches_vandermonde_ratio():
    for n in range(13):
        for p in (2, 3, 5, 7, 11, 13):
            num = vdm_value(a_min(p, n + 1))
            den = vdm_value(a_min(p, n)) if n > 0 else 1
            q = Fraction(num, den)
            vpq = vp(q.numerator, p) - vp(q.denominator, p)
            assert vpq == dn(n).per_prime.get(p, 0), (n, p)


def test_dn_tilde_factorial_identity():
    for n in range(10):
        for p in (2, 3, 5, 7):
            k = n // (p - 1)
            v = vp(dn_tilde(n), p) if dn_tilde(n) % p == 0 else 0
            assert v == vp_factorial(n + k, p), (n, p)


def test_a_min_examples():
    assert a_min(3, 4) == [1, 2, 4, 5]
    assert a_min(2, 3) == [1, 3, 5]
    assert a_min(5, 5) == [1, 2, 3, 4, 6]


def test_vdm_consecutive_is_one():
    for n in range(1, 6):
        assert vdm_value(list(range(1, n + 1))) == 1


def test_vdm_matches_brute_force_determinant():
    rng = random.Random(1)

    def det(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        out = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            out += (-1) ** j * mat[0][j] * det(minor)
        return out

    for _ in range(8):
        n = rng.randint(1, 5)
        nodes = rng.sample(range(1, 25), n)
        M = [[gbinom(a, k) for a in nodes] for k in range(n)]
        assert vdm_value(nodes) == det(M)


def test_vdm_minimal_divides_in_Zp():
    rng = random.Random(2)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        n = rng.randint(2, 5)
        base_val = vdm_value(a_min(p, n))
        nodes = sorted(rng.sample([a for a in range(1, 40) if a % p], n))
        v_base = vp(base_val, p) if base_val % p == 0 else 0
        node_val = vdm_value(nodes)
        v_nodes = vp(node_val, p) if node_val % p == 0 else 0
        assert v_nodes >= v_base, (p, nodes)


def test_vdm_errors():
    with pytest.raises(ValueError):
        vdm_value([3, 3])
    assert vdm_value([9]) == 1


# -- criterion and oracle ------------------------------------------------------------


def test_criterion_unit_adams(budget):
    # 17 is a unit at every prime the T = 12 window can test
    assert s_criterion(adams_series(17, 12)).ok
    # 11 is a unit within the budget {2,3,5,7} but not at p = 11
    assert s_criterion(adams_series(11, 12), primes=budget.primes).ok
    assert not s_criterion(adams_series(11, 12)).ok
    A = to_profinite(adams_series(11, 12), budget)
    rep = s_criterion(A)
    assert rep.ok and not rep.skipped


def test_criterion_x_witness():
    rep = s_criterion(TruncSeries(Z, 8, [0, 1]))
    assert not rep.ok
    assert rep.witness == (2, 1, 2, 0)


def test_criterion_reports_skipped_instances():
    # A_5 over (2,3)^4 with [x^3] known only mod 2: every instance at p = 2
    # whose sum reads x^3 mod 4 or 8 is skipped, never passed or failed
    B = PrimeBudget.uniform([2, 3], 4)
    R = ProfiniteRing(B)
    coeffs = list(adams_series(5, 8).map_coeffs(R.coerce, R).coeffs)
    c = coeffs[3]
    coeffs[3] = ProfiniteApprox(B, {2: c.residue[2] % 2, 3: c.residue[3]}, {2: 1, 3: 4})
    rep = s_criterion(TruncSeries(R, 8, coeffs))
    assert rep == stable.CriterionReport(True, None, [(2, 2, 4), (2, 2, 8), (2, 3, 8)])


@pytest.mark.parametrize("bad", [1, 0, 4, -2, 2.0, True])
def test_criterion_rejects_a_non_prime(bad):
    # 1 and 0 once looped for ever in largest_prime_power; 4 and -2 passed
    with pytest.raises(ValueError, match=f"s_criterion prime {bad!r} is not a prime"):
        s_criterion(adams_series(3, 6), primes=[2, bad])


def test_criterion_rejects_a_prime_outside_the_budget():
    # once a bare KeyError: 3 from the coefficient residues
    A = to_profinite(adams_series(5, 6), PrimeBudget.uniform([2, 5], 4))
    with pytest.raises(ValueError, match=r"prime 3 is outside the budget primes \(2, 5\)"):
        s_criterion(A, primes=[3])
    assert s_criterion(A, primes=[2]).ok


def test_tower_member_rejects_a_prime_outside_the_budget():
    # once a bare KeyError: 2 from the coefficient precisions
    G = TruncSeries(ProfiniteRing(PrimeBudget.uniform((3, 5), 2)), 3, [1, 2, 3, 4])
    with pytest.raises(ValueError, match=r"tower_member prime 2 is outside the budget primes \(3, 5\)"):
        tower_member(G, 1, PrimeBudget.uniform((2, 3), 3))
    assert tower_member(G, 1, PrimeBudget.uniform((3,), 2))


def test_every_prime_outside_the_budget_is_named():
    # one ValueError names all of them
    G = to_profinite(adams_series(3, 6), PrimeBudget.uniform([2], 4))
    missing = r"primes \[3, 5, 7\] are outside the budget primes \(2,\)$"
    with pytest.raises(ValueError, match="s_criterion " + missing):
        s_criterion(G, primes=[2, 3, 5, 7])
    with pytest.raises(ValueError, match="tower_member " + missing):
        tower_member(G, 1, PrimeBudget.uniform((2, 3, 5, 7), 4))
    # a non-prime is named before any missing prime
    with pytest.raises(ValueError, match=r"s_criterion prime 4 is not a prime$"):
        s_criterion(G, primes=[3, 4])


@pytest.mark.parametrize("bad", [4, 1, -3, 2.0, True])
def test_oracle_rejects_a_non_prime(bad):
    # s_oracle(adams_series(3, 6), 4, 2, 6) once answered True
    with pytest.raises(ValueError, match=f"s_oracle prime {bad!r} is not a prime"):
        s_oracle(adams_series(3, 6), bad, 2, 6)


@pytest.mark.parametrize("e,T,bad", [(-1, 5, "e must be >= 0, got -1"),
                                     (2, -1, "T must be >= 0, got -1"),
                                     (-3, -2, "e must be >= 0, got -3")])
def test_oracle_rejects_a_negative_exponent_or_window(e, T, bad):
    # s_oracle(A, 2, -1, 5) and s_oracle(A, 2, 2, -1) once answered True
    # without reading G; e = 0 tests no window and stays a vacuous member
    A = adams_series(3, 6)
    with pytest.raises(ValueError, match=f"^s_oracle {bad}$"):
        s_oracle(A, 2, e, T)
    assert s_oracle(A, 2, 0, 6) and s_oracle(TruncSeries(Z, 6, [1] * 7), 2, 0, 6)


def test_oracle_names_the_coefficient_that_lacks_digits():
    # A_3 over (2)^4 with a_1 known mod 2 only: the window mod (4, x^4)
    # reads a_1 mod 4, which once raised "need {2: 1} mod 2^2, stored
    # precision 1", naming neither the degree nor the digits it has
    budget = PrimeBudget.uniform([2], 4)
    A = to_profinite(adams_series(3, 5), budget)
    coeffs = list(A.coeffs)
    coeffs[1] = ProfiniteApprox(budget, {2: coeffs[1].residue[2]}, {2: 1})
    G = TruncSeries(A.ring, 5, coeffs)
    with pytest.raises(PrecisionError, match=r"^coefficient 1 has 1 of the 2 digits needed at p=2$"):
        s_oracle(G, 2, 3, 5)
    assert s_oracle(G, 2, 1, 5)


def test_oracle_rejects_a_prime_outside_the_budget():
    # once a bare KeyError: 3 from the coefficient residues
    A = to_profinite(adams_series(3, 6), PrimeBudget.uniform([2], 4))
    with pytest.raises(ValueError, match=r"s_oracle prime 3 is outside the budget primes \(2,\)"):
        s_oracle(A, 3, 1, 6)
    assert s_oracle(A, 2, 1, 6)


@pytest.mark.parametrize("ring", ["Z", "Zhat"])
def test_criterion_reads_each_coefficient_once_per_prime_power(monkeypatch, ring):
    # the running sums read each [x^i] G at most once per prime power: at
    # most (T+1) * sum_p n_max(p) reads, where summing each window afresh
    # reads ~T^3/p^2 per prime
    T = 24
    G = adams_series(29, T)  # 29 is a unit at every prime <= T + 1
    primes = set_primes_upto(T + 1)
    if ring == "Zhat":
        G = to_profinite(G, PrimeBudget.uniform(primes, 5))
    reads = []
    real = stable._coeff_residue

    def counted(G, i, p, k):
        reads.append((i, p, k))
        return real(G, i, p, k)

    monkeypatch.setattr(stable, "_coeff_residue", counted)
    counts = []
    for _ in range(2):
        reads.clear()
        assert s_criterion(G).ok
        assert len(set(reads)) == len(reads)
        counts.append(len(reads))
    bound = (T + 1) * sum(largest_prime_power(p, T + 1)[0] for p in primes)
    assert counts[0] == counts[1] <= bound


def test_criterion_Fn(budget):
    for n in (0, 1, 2, 3):
        F = construct_Fn(n, 12, budget)
        assert s_criterion(F.series).ok, n


def test_oracle_agrees_with_criterion_random():
    # production route s_criterion against its oracle, the lattice test s_oracle
    rng = random.Random(3)
    for trial in range(30):
        p = rng.choice([2, 3, 5])
        e = rng.randint(1, 3)
        T = rng.randint(6, 12)
        G = TruncSeries(Z, T, [rng.randint(0, 40) for _ in range(T + 1)])
        rep = s_criterion(G, primes=[p])
        want = rep.ok or rep.witness[1] > e
        assert s_oracle(G, p, e, T) == want, (trial, p, e, T)


def test_oracle_unit_combination_true(budget):
    rng = random.Random(4)
    T = 10
    G = TruncSeries.zero(Z, T)
    for _ in range(3):
        r = rng.choice([1, 11, 13, 121, 143])
        G = G + adams_series(r, T).scale(rng.randint(-9, 9))
    for p in (2, 3, 5):
        assert s_oracle(G, p, 2, T)


def test_oracle_top_monomial_false():
    # x^(T-1) alone: the leading coefficient 1 is not divisible by d_(T-1)
    T = 12
    G = TruncSeries.monomial(Z, T, T - 1)
    assert not s_oracle(G, 2, 3, T)


def test_oracle_walks_past_the_first_image():
    # G = Phi(H) lies in L_1 at every window, so only the levels r >= 2 of
    # the walk can reject it; 2x^2 - 2x is in L_1 but not L_2 mod (4, x^4)
    assert not s_oracle(TruncSeries(Z, 3, [0, -2, 2]), 2, 2, 3)
    rng = random.Random(11)
    verdicts = set()
    for trial in range(40):
        p, e = rng.choice([2, 3]), rng.randint(2, 3)
        T = rng.randint(p**2 - 1, 12)
        G = phi(TruncSeries(Z, T + 1, [rng.randint(-20, 20) for _ in range(T + 2)]))
        rep = s_criterion(G, primes=[p])
        want = rep.ok or rep.witness[1] > e
        assert s_oracle(G, p, e, T) == want, (trial, p, e, T)
        verdicts.add(want)
    assert verdicts == {True, False}


# -- basis construction ----------------------------------------------------------------


def test_construct_Gn_leading_and_criterion(budget):
    for n in range(6):
        B = construct_Gn(n, 12, budget)
        for i in range(n):
            assert B.series.coeffs[i].is_zero()
        assert B.series.coeffs[n].eq_within(dn(n).value)
        assert s_criterion(B.series).ok
        # the closure trace: an explicit unit-Adams combination is recorded
        assert len(B.combination) == n + 1
        for cof, node in B.combination:
            assert all(node % p for p in budget.primes)


def test_construct_G0_is_one_minus_x(budget):
    B = construct_Gn(0, 6, budget)
    assert B.series.coeffs[0].eq_within(1)
    assert B.series.coeffs[1].eq_within(-1)
    assert all(B.series.coeffs[k].is_zero() for k in range(2, 7))


def _oracle_Gn(n, T, budget):
    """G_n by the elimination route: solve the binomial Vandermonde system
    with linalg.solve_vandermonde, embed each weight, and sum the weighted
    integer Adams series coefficient by coefficient."""
    nodes = stable._glued_nodes(budget, n + 1)
    xs = solve_vandermonde(nodes, [0] * n + [(-1) ** n * dn(n).value])
    ring = ProfiniteRing(budget)
    comb = [(ProfiniteApprox.from_rational(budget, x), a) for x, a in zip(xs, nodes)]
    G = TruncSeries.zero(ring, T)
    for cof, a in comb:
        G = G + adams_series(a, T).map_coeffs(lambda v: cof * v, ring)
    return BasisSeries("G", n, G, combination=comb)


def _oracle_Fn(n, T, budget, Gn=_oracle_Gn):
    """F_n by the series descent: subtract b_i * G_i, with G_i a whole
    profinite series built by ``Gn``, for each i > n whose b_i is nonzero.
    construct_Fn runs the same descent on node weights instead; F_0 and
    F_1 are closed forms, taken from it."""
    if n < 2:
        return construct_Fn(n, T, budget)
    G = Gn(n, T, budget)
    F = G.series
    comb = {node: cof for cof, node in G.combination}
    ints = [0] * n + [dn(n).value] + [0] * (T - n)
    for i in range(n + 1, T + 1):
        di = dn(i)
        a = F.coeffs[i]
        caps = {p: min(di.per_prime.get(p, 0), budget.exponent(p)) for p in budget.primes}
        pairs = [(a.residue_mod(p, caps[p]), p ** caps[p]) for p in budget.primes if caps[p]]
        a_rep = crt_lift(pairs)[0] if pairs else 0
        ints[i] = a_rep
        bpairs = []
        for p in budget.primes:
            v = di.per_prime.get(p, 0)
            k = budget.exponent(p) - v
            if k <= 0:
                continue
            diff = (a - a_rep).residue_mod(p, budget.exponent(p))
            assert diff % p**v == 0
            unit = di.value // p**v
            bpairs.append(((diff // p**v) * pow(unit, -1, p**k) % p**k, p**k))
        b_int = crt_lift(bpairs)[0] if bpairs else 0
        if b_int:
            Gi = Gn(i, T, budget)
            F = F - Gi.series.scale(b_int)
            for cof, node in Gi.combination:
                cur = comb.get(node)
                comb[node] = cof * (-b_int) if cur is None else cur + cof * (-b_int)
    return BasisSeries(
        "F", n, F, ints, combination=[(c, node) for node, c in sorted(comb.items())]
    )


def _digits(B):
    """Every stored residue and precision of a basis element."""
    return (
        B.series.to_json(),
        [(cof.to_json(), node) for cof, node in B.combination],
        B.int_coeffs,
    )


@pytest.mark.parametrize(
    "primes,e", [((2, 3, 5, 7), 8), ((2, 3, 5, 7), 12), ((2, 3), 6)]
)
def test_construct_Gn_closed_form_matches_vandermonde_oracle(primes, e):
    budget = PrimeBudget.uniform(primes, e)
    oracle = {}

    def oracle_Gn(n, T, b):
        if (n, T, b) not in oracle:
            oracle[n, T, b] = _oracle_Gn(n, T, b)
        return oracle[n, T, b]

    for T in (12, 16):
        for n in range(T + 1):
            assert _digits(construct_Gn(n, T, budget)) == _digits(oracle_Gn(n, T, budget)), (n, T)
            want = _oracle_Fn(n, T, budget, Gn=oracle_Gn)
            assert _digits(construct_Fn(n, T, budget)) == _digits(want), (n, T)


def _digits_or_raised(fn, *args):
    try:
        return _digits(fn(*args))
    except Exception:  # each route raises its own error: only that it raises is compared
        return "raised"


@pytest.mark.parametrize(
    "primes,e",
    [((2, 3), 2), ((2,), 3), ((3, 5), 2), ((2, 3, 5), 3), ((5, 7), 2), ((2,), 6), ((2, 3), 4)],
)
def test_construct_Gn_matches_vandermonde_oracle_at_shallow_budgets(primes, e):
    # the valuations of _NodeWeights at budgets too shallow for some n: for
    # every n the closed form and the oracle give the same digits, or both raise
    budget = PrimeBudget.uniform(primes, e)
    for T in (6, 10):
        for n in range(T + 1):
            G = _digits_or_raised(construct_Gn, n, T, budget)
            assert G == _digits_or_raised(_oracle_Gn, n, T, budget), (n, T)
            F = _digits_or_raised(construct_Fn, n, T, budget)
            assert F == _digits_or_raised(_oracle_Fn, n, T, budget), (n, T)


def _oracle_lagrange_weights(n, nodes, budget):
    """The weights of G_n at the first n+1 nodes by exact rationals: each
    x_j = (-1)^n d_n n! / prod_{i != j} (a_j - a_i) as a Fraction, embedded
    mod p^e_p through the inverse of its reduced denominator, raising
    PrecisionError when a budget prime divides one."""
    nodes = nodes[: n + 1]
    if len(set(nodes)) != n + 1:
        raise PrecisionError("budget too small to separate the Adams nodes")
    top = (-1) ** n * dn(n).value * math.factorial(n)
    weights = [Fraction(top, math.prod(a - b for b in nodes if b != a)) for a in nodes]
    out = {}
    for p in budget.primes:
        if any(w.denominator % p == 0 for w in weights):
            raise PrecisionError(
                f"G_{n} weights have a denominator divisible by p={p}: "
                f"budget precision {p}^{budget.exponent(p)} is too shallow"
            )
        q = p ** budget.exponent(p)
        out[p] = [w.numerator * pow(w.denominator, -1, q) % q for w in weights]
    return out


@pytest.mark.parametrize(
    "primes,e,shallow",
    [
        ((2, 3, 5, 7), 8, False),
        ((2, 3, 5, 7), 12, False),
        ((2, 3), 6, False),
        ((2, 3, 5, 7, 11, 13), 5, True),
        ((2, 3, 5), 4, True),
    ],
)
def test_node_weight_table_matches_fraction_oracle(primes, e, shallow):
    # production route: one incremental _NodeWeights table per node list,
    # asked for G_0..G_T in turn as construct_Fn does; oracle: Fractions
    budget = PrimeBudget.uniform(primes, e)
    raised = 0
    for T in (8, 12, 16):
        nodes = stable._glued_nodes(budget, T + 1)
        table = stable._NodeWeights(nodes, budget)
        for n in range(T + 1):
            got = _outcome_of(table.weights, n, dn(n))
            assert got == _outcome_of(_oracle_lagrange_weights, n, nodes, budget), (T, n)
            raised += isinstance(got, tuple)
    assert bool(raised) == shallow


def _outcome_of(fn, *args):
    try:
        return fn(*args)
    except PrecisionError as exc:
        return type(exc), str(exc)


def _outcome(fn, *args):
    try:
        return _digits(fn(*args))
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


@pytest.mark.parametrize("primes,e", [((2, 3, 5, 7, 11, 13), 5), ((2, 3, 5), 4)])
def test_construct_Fn_errors_match_series_descent(primes, e):
    # budgets too shallow for some weights or nodes: the weight descent
    # raises exactly where the series descent (over construct_Gn) raises
    budget = PrimeBudget.uniform(primes, e)
    raised = 0
    for T in (8, 12, 16):
        for n in range(2, T + 1):
            got = _outcome(construct_Fn, n, T, budget)
            assert got == _outcome(_oracle_Fn, n, T, budget, construct_Gn), (n, T)
            raised += got[0] is PrecisionError
    assert raised


def test_construct_Gn_shallow_budget_names_prime():
    # the weight denominators of G_16 keep a factor 2 at nodes glued mod 2^5
    budget = PrimeBudget.uniform((2, 3, 5, 7, 11, 13), 5)
    with pytest.raises(ValueError, match="not invertible mod 32"):
        _oracle_Gn(16, 16, budget)
    with pytest.raises(PrecisionError, match="p=2"):
        construct_Gn(16, 16, budget)


def test_construct_Fn_canonical_low_indices(budget):
    F0 = construct_Fn(0, 8, budget)
    assert F0.int_coeffs == [1, -1, 0, 0, 0, 0, 0, 0, 0]
    F1 = construct_Fn(1, 8, budget)
    assert F1.int_coeffs == [0, 2, 1, 1, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("construct", [construct_Fn, construct_Gn])
@pytest.mark.parametrize("n,T", [(1, 0), (5, 2), (4, 3)])
def test_construct_basis_leading_term_beyond_truncation_raises(budget, construct, n, T):
    # d_n x^n does not fit below x^(T+1): no all-zero series stands in for it
    with pytest.raises(TruncationExhausted, match=f"_{n} needs truncation >= {n}.*T={T}"):
        construct(n, T, budget)
    assert construct(T, T, budget).n == T


def test_construct_Fn_integer_consistent_and_stable(budget):
    for n in range(6):
        F = construct_Fn(n, 16, budget)
        assert all(F.int_coeffs[i] == 0 for i in range(n))
        assert F.int_coeffs[n] == dn(n).value
        for i, c in enumerate(F.series.coeffs):
            assert c.eq_within(F.int_coeffs[i]), (n, i)
        assert s_criterion(F.series).ok


def test_Fn_span_is_the_phi_image_lattice():
    # ROADMAP item 15 on a grid: mod (p^e, x^(T+1)) the int_coeffs of
    # F_0..F_T span exactly the image lattice of Phi^(e+1), which is the
    # lattice of stable operations there, the span of the unit Adams series
    # (F_n built at a budget that holds every d_n below; at a one-prime
    # budget (p)^e some F_n cannot be built)
    B = PrimeBudget.uniform([2, 3, 5, 7], 8)
    cases = 0
    for T in range(11):
        family = [construct_Fn(n, T, B).int_coeffs for n in range(T + 1)]
        for p in (2, 3, 5):
            for e in range(1, 5):
                want = _phi_image_lattice(T + 1, e + 1, p**e)
                assert howell_form(ModMatrix(p**e, family)) == want, (T, p, e)
                assert stable._stable_lattice(T + 1, p, e) == want, (T, p, e)
                cases += 1
    assert cases == 132


def test_construct_Fn_deterministic(budget):
    a = construct_Fn(3, 12, budget)
    b = construct_Fn(3, 12, budget)
    assert a.int_coeffs == b.int_coeffs


def test_construct_Fn_closure_trace(budget):
    # the recorded unit-Adams combination reassembles F_n within budget:
    # the constructive form of the closure property
    for n in (0, 1, 2, 3):
        F = construct_Fn(n, 10, budget)
        ring = ProfiniteRing(budget)
        acc = TruncSeries.zero(ring, 10)
        for cof, node in F.combination:
            acc = acc + adams_series(node, 10).map_coeffs(lambda v: cof * v, ring)
        assert acc == F.series, n
        for _, node in F.combination:
            assert all(node % p for p in budget.primes), n


def test_decompose_S0_unit_vector(budget):
    fam = [construct_Fn(k, 10, budget) for k in range(11)]
    G = TruncSeries(Z, 10, list(fam[2].int_coeffs))
    out = decompose_S0(G, budget, family=fam)
    assert out == [0, 0, 1] + [0] * 8


def test_decompose_S0_constructed(budget):
    fam = [construct_Fn(k, 12, budget) for k in range(13)]
    coeffs = [3, -1, 0, 2] + [0] * 9
    G = TruncSeries(Z, 12, [0] * 13)
    for k, a in enumerate(coeffs):
        if a:
            G = G + TruncSeries(Z, 12, list(fam[k].int_coeffs)).scale(a)
    assert decompose_S0(G, budget, family=fam) == coeffs


def test_decompose_S0_adams_difference(budget):
    fam = [construct_Fn(k, 12, budget) for k in range(13)]
    G = adams_series(1, 12) - adams_series(-1, 12)
    out = decompose_S0(G, budget, family=fam)
    recon = TruncSeries(Z, 12, [0] * 13)
    for k, a in enumerate(out):
        if a:
            recon = recon + TruncSeries(Z, 12, list(fam[k].int_coeffs)).scale(a)
    assert recon == G


def test_decompose_S0_rejects_nonmember(budget):
    G = TruncSeries(Z, 8, [0, 1])  # leading coefficient 1, d_1 = 2
    with pytest.raises(ValueError, match="degree 1"):
        decompose_S0(G, budget)


def test_decompose_S0_rejects_a_non_integer_coefficient(budget):
    G = TruncSeries(Q, 3, [Fraction(1, 2)])  # int() would read 0
    with pytest.raises(ValueError, match="coefficient 0 = 1/2 is not an integer"):
        decompose_S0(G, budget)


# -- tower ----------------------------------------------------------------------------


def test_tower_stable_members_all_levels(budget):
    A = to_profinite(adams_series(11, 10), budget)
    for lvl in range(1, 10):
        assert tower_member(A, lvl, budget)
    F = construct_Fn(2, 10, budget)
    for lvl in range(1, 10):
        assert tower_member(F.series, lvl, budget)


def test_tower_monomials_iff_dn_divides(budget):
    ring = ProfiniteRing(budget)
    for n in range(5):
        d = dn(n).value
        for mult in (d, 3 * d, -d):
            G = TruncSeries(ring, n, [ring.zero()] * n + [prof(budget, mult)])
            assert tower_member(G, n + 1, budget), (n, mult)
        if d > 1:
            for bad in {1, d // 2}:
                if bad % d == 0:
                    continue
                G = TruncSeries(ring, n, [ring.zero()] * n + [prof(budget, bad)])
                assert not tower_member(G, n + 1, budget), (n, bad)


def test_tower_p2_precision_law():
    # d_j/2 x^j, stored at truncation j, fails level j+1 at budget (2)^e
    # exactly from e = j + v_2(j!) on
    least = {2: 3, 3: 4, 4: 7, 5: 8, 6: 10, 7: 11, 8: 15, 9: 16, 10: 18}
    for j, e_min in least.items():
        assert e_min == j + vp_factorial(j, 2)
        G = TruncSeries(Z, j, [0] * j + [dn(j).value // 2])
        for e in range(1, e_min + 3):
            assert tower_member(G, j + 1, PrimeBudget.uniform([2], e)) == (e < e_min), (j, e)


# the least budget exponent e at which d_j/p x^j, stored at truncation j,
# fails level j+1 at budget (p)^e, for every j <= 10 with p | d_j; both
# tables are instances of e_min(p, j) = v_p(d_j) + v_p(j!) - (j mod (p-1)),
# a conjecture checked over a wider range by test_tower_precision_law
TOWER_P3_LEAST_FAILING_E = {2: 1, 4: 2, 5: 1, 6: 4, 7: 3, 8: 5, 9: 4, 10: 6}
TOWER_P5_LEAST_FAILING_E = {4: 1, 8: 2, 9: 1}


@pytest.mark.parametrize("p, least", [(3, TOWER_P3_LEAST_FAILING_E), (5, TOWER_P5_LEAST_FAILING_E)])
def test_tower_p3_p5_precision_tables(p, least):
    assert sorted(least) == [j for j in range(1, 11) if dn(j).value % p == 0]
    for j, e_min in least.items():
        G = TruncSeries(Z, j, [0] * j + [dn(j).value // p])
        for e in range(1, 12):
            assert tower_member(G, j + 1, PrimeBudget.uniform([p], e)) == (e < e_min), (j, e)


# p -> largest j checked by test_tower_precision_law
TOWER_LAW_J_MAX = {2: 16, 3: 20, 5: 22, 7: 22, 11: 24}


def test_tower_precision_law():
    # d_j/p x^j, stored at truncation j, passes level j+1 at budget (p)^e
    # exactly while e < e_min(p, j) = v_p(d_j) + v_p(j!) - (j mod (p-1)),
    # at every j in range with p | d_j (a conjecture, checked here)
    cases = 0
    for p, j_max in TOWER_LAW_J_MAX.items():
        for j in range(1, j_max + 1):
            d = dn(j)
            if p not in d.per_prime:
                continue
            e_min = d.per_prime[p] + vp_factorial(j, p) - j % (p - 1)
            G = TruncSeries(Z, j, [0] * j + [d.value // p])
            for e in range(1, e_min + 2):
                assert tower_member(G, j + 1, PrimeBudget.uniform([p], e)) == (e < e_min), (p, j, e)
            cases += 1
    assert cases == 56


def test_tower_x_fails(budget):
    ring = ProfiniteRing(budget)
    G = TruncSeries(ring, 1, [ring.zero(), prof(budget, 1)])
    assert not tower_member(G, 1, budget)


def test_tower_cross_checks_oracle(budget):
    # 2x + x^2-style witnesses: tower level 1 agrees with the image oracle
    rng = random.Random(5)
    T = 8
    for trial in range(10):
        G = TruncSeries(Z, T, [0, 2] + [rng.randint(0, 3) for _ in range(T - 1)])
        gp = to_profinite(G, budget)
        want = all(s_oracle(G, p, budget.exponent(p), T) for p in budget.primes)
        assert tower_member(gp, 1, budget) == want, trial


def _oracle_tower(G, n, budget):
    """tower_member by the per-level loop: G's window must lie in the image
    lattice of Phi^r mod (p^e, x^D) for every r from n to max(n, e) + 1,
    each lattice spanned by Phi^r(x^k), k < D + r, computed with phi_by_steps.
    A Q or Z coefficient must be an integer at every level."""
    if not isinstance(G.ring, ProfiniteRing):
        for i, c in enumerate(G.coeffs):
            exact_int(c, i)
    if n < 1:
        return True
    D = G.trunc + 1
    for p in budget.primes:
        e = budget.exponent(p)
        if isinstance(G.ring, ProfiniteRing):
            e = min(e, min(c.prec[p] for c in G.coeffs))
        if e < 1:
            raise PrecisionError(f"no digits left at p={p}")
        q = p**e
        target = [
            c.residue_mod(p, e) if isinstance(c, ProfiniteApprox) else int(c) % q
            for c in G.coeffs
        ]
        for r in range(n, max(n, e) + 2):
            rows = []
            for k in range(1, D + r):
                image = phi_by_steps(TruncSeries.monomial(Z, D + r - 1, k), r)
                rows.append([int(c) % q for c in image.coeffs[:D]])
            if not in_row_span(ModMatrix(q, rows, cols=D), target)[0]:
                return False
    return True


def _random_tower_case(rng):
    primes = rng.choice([(2,), (2, 3), (3, 5), (2, 3, 5, 7)])
    budget = PrimeBudget.uniform(primes, rng.randint(1, 6))
    n = rng.randint(0, 7)
    ring = ProfiniteRing(budget)
    kind = rng.choice(["monomial", "Z", "Zhat"])
    if kind == "monomial":
        j = rng.randint(1, 6)
        d = dn(j).value * rng.choice([1, 2, 3, -1]) // rng.choice([1, 1, 2, 3])
        return TruncSeries(ring, j, [ring.zero()] * j + [prof(budget, d)]), n, budget
    T = rng.randint(1, 6)
    if kind == "Z":
        return TruncSeries(Z, T, [rng.randint(-20, 20) for _ in range(T + 1)]), n, budget
    coeffs = []
    for _ in range(T + 1):
        c = prof(budget, rng.randrange(10**6))
        if rng.random() < 0.3:  # lose digits at the divisor's primes
            m = rng.choice([2, 3, 5, 6])
            c = (c * m).divide_exact(m)
        coeffs.append(c)
    return TruncSeries(ring, T, coeffs), n, budget


def test_phi_image_lattice_is_constant_above_the_exponent():
    # the Phi-band lattice L_r mod (p^e, x^D) is the span of the unit Adams
    # series for every r from e to e+6, which lets tower_member test every
    # level n >= 1 against that one lattice
    for p in (2, 3, 5, 7):
        for e in range(1, 5):
            for D in range(1, 17):
                unit_span = stable._stable_lattice(D, p, e)
                for r in range(e, e + 7):
                    assert _phi_image_lattice(D, r, p**e) == unit_span, (p, e, D, r)


@pytest.mark.parametrize("p,e,D", [(2, 8, 17), (2, 10, 40), (3, 6, 20), (5, 6, 30),
                                   (7, 8, 25), (3, 10, 40)])
def test_stable_lattice_is_the_phi_image_lattice_at_large_exponents(p, e, D):
    # past the grid above: exponents up to 10, windows up to x^40
    unit_span = stable._stable_lattice(D, p, e)
    for r in (e, e + 1):
        assert _phi_image_lattice(D, r, p**e) == unit_span, r


def test_stable_lattice_is_every_s_oracle_window_walked():
    # the walk s_oracle once ran in each window (q, x^m), q = p^n, from r = 1
    # to the chain's first repeat, ends at the unit Adams span mod (p^n, x^m)
    windows = {((T + 1) // p**n * p**n, p, n)
               for p in (2, 3, 5, 7) for T in range(30)
               for n in range(1, 5) if p**n <= T + 1}
    for m, p, n in windows:
        assert phi_image_walk(m, p**n) == stable._stable_lattice(m, p, n), (m, p, n)
    assert len(windows) == 51


def test_phi_image_rows_match_phi_by_steps():
    # the rows read off the cached Phi^r band are the step loop's Phi^r(x^k),
    # k = 1..D+r-1, truncated below degree D and reduced mod q
    for D in range(1, 18):
        for r in range(1, 7):
            steps = [phi_by_steps(TruncSeries.monomial(Z, D + r - 1, k), r).coeffs
                     for k in range(1, D + r)]
            for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
                want = [[c % q for c in image] for image in steps]
                assert _phi_image_rows(D, r, q) == want, (D, r, q)


def test_phi_image_lattice_is_phi_power_of_identity_basis():
    # the identity s_oracle rests on: with q | m, the rows x^k (k >= m) of
    # the Phi-band lattice vanish below degree m, so L_r mod (q, x^m) is the
    # Howell form of Phi^r on the basis 1, x, ..., x^(m-1), here by
    # phi_by_steps; from r = n, q = p^n, it is the unit Adams span
    for p in (2, 3, 5, 7):
        q, n = p, 1
        while q <= 17:
            for m in range(q, 18, q):
                for r in range(1, 7):
                    rows = []
                    for k in range(m):
                        image = phi_by_steps(TruncSeries.monomial(Z, m - 1 + r, k), r)
                        rows.append([int(c) % q for c in image.coeffs[:m]])
                    want = howell_form(ModMatrix(q, rows, cols=m))
                    assert _phi_image_lattice(m, r, q) == want, (q, m, r)
                    if r >= n:
                        assert stable._stable_lattice(m, p, n) == want, (q, m, r)
            q, n = q * p, n + 1


def test_tower_member_single_lattice_matches_per_level_oracle():
    # every case twice: with the lattice memo emptied before it (cold), and
    # with it kept from the cases before (warm); the cases repeat (D, p, e)
    # keys with different G, including Zhat inputs whose lost digits lower e
    lattice = stable._stable_lattice
    assert lattice.cache_info().maxsize is not None
    for cold in (True, False):
        lattice.cache_clear()
        rng = random.Random(8)
        verdicts = []
        for trial in range(300):
            G, n, budget = _random_tower_case(rng)
            if cold:
                lattice.cache_clear()
            try:
                want = _oracle_tower(G, n, budget)
            except PrecisionError:
                with pytest.raises(PrecisionError):
                    tower_member(G, n, budget)
                continue
            assert tower_member(G, n, budget) == want, (cold, trial, n, budget, G)
            verdicts.append(want)
        assert True in verdicts and False in verdicts
        assert (lattice.cache_info().hits > 0) == (not cold)


# -- multiplicative layer ----------------------------------------------------------------


@pytest.fixture
def deep_budget():
    return PrimeBudget.uniform([2, 3, 5, 7], 16)


def test_twisted_identity(deep_budget):
    one = prof(deep_budget, 1)
    ta = twisted_adams(one, one, 8)
    assert ta.integral and twisted_rule(one, one)
    assert ta.series.coeffs[1].eq_within(1)
    assert all(ta.series.coeffs[k].is_zero() for k in (0, 2, 3, 4))


def test_twisted_plain_adams(deep_budget):
    one = prof(deep_budget, 1)
    for m in (3, 5, -2):
        tb = twisted_adams(prof(deep_budget, m), one, 8)
        assert tb.integral
        # gamma = 1 - (1-x)^m
        want = [0] + [-((-1) ** k) * gbinom(m, k) for k in range(1, 9)]
        for got, w in zip(tb.series.coeffs, want):
            assert got.eq_within(w)


def test_twisted_nonintegral_witness(deep_budget):
    b, c = prof(deep_budget, 1), prof(deep_budget, 2)
    tc = twisted_adams(b, c, 8)
    assert not tc.integral and tc.witness == (2, 2) and not twisted_rule(b, c)


def _twisted_witness_fits(bv: int, cv: int, primes, T: int) -> bool:
    """The first non-integral coefficient sits at n = p^(v_p(b)+1); the
    series verdict can only disagree with the closed rule when that index
    exceeds the truncation window."""
    for p in primes:
        if bv % p**20 == 0:
            continue
        if cv % p == 0 and p ** (vp(bv, p) + 1) > T:
            return False
    return True


def test_twisted_rule_matches_series_random(deep_budget):
    rng = random.Random(6)
    T = 12
    for trial in range(60):
        bv = rng.choice([1, 2, 3, 4, 5, 6, 7, 9, 10, 15])
        cv = rng.choice([1, 2, 3, 5, 6, 7, 10, 11, 14, 15, 21, 35])
        b, c = prof(deep_budget, bv), prof(deep_budget, cv)
        out, rule = twisted_adams(b, c, T), twisted_rule(b, c)
        if _twisted_witness_fits(bv, cv, deep_budget.primes, T):
            assert out.integral == rule, (trial, bv, cv, out.witness)
        elif out.integral != rule:
            # only the predicted direction: window-integral vs rule-false
            assert out.integral and not rule, (trial, bv, cv)


def test_twisted_composition_relation(deep_budget):
    rng = random.Random(7)
    for _ in range(5):
        b1, c1, b2, c2 = (rng.randrange(1, 500) for _ in range(4))
        A1 = adams_series(b1 * c1, 10)
        A2 = adams_series(b2 * c2, 10)
        assert compose_op(A1, A2) == adams_series(b1 * c1 * b2 * c2, 10)


def test_stable_mult_check(deep_budget):
    assert stable_mult_check(prof(deep_budget, 1), 8)
    assert stable_mult_check(prof(deep_budget, -1), 8)
    assert stable_mult_check(prof(deep_budget, 11), 8)
    assert not stable_mult_check(prof(deep_budget, 6), 8)
    bud25 = PrimeBudget.uniform([2, 5], 16)
    assert stable_mult_check(prof(bud25, 3), 8)
