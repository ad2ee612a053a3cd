"""Reference implementations that only the tests compare against: a
brute-force row span, the binomial-Vandermonde determinant in closed form
(the Vandermonde-ratio route to d_n), lg_r by series powers, the lg-basis
reassembly, the term-by-term integer combination, the one-shot bilinear
kernel, the scaled-sum composition, Phi^n one step at a time, the
validating profinite binary kernel, the twisted-Adams integrality rule,
the substitution with one MultiSeries per power, the iterated partial
derivative with one substitution per subset, the MultiSeries product on
exponent tuples, the stable-membership congruences summed window by
window, the image lattices of Phi^r spanned by its band and their walk to
the first repeat, the e-basis coefficients by finite differences, the
random-lift soundness check of a profinite route, the primes by a
sieve, both membership routes on Fractions with the integrality
test they read, and d_n derived afresh on every call."""

import math
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Sequence

from ckops import NotInGroup, NumericalPoly, ProfiniteApprox, Q, TruncationExhausted, TruncSeries, lg_series
from ckops.arith import (PrecisionError, crt_lift, largest_prime_power, rational_mod,
                         set_primes_upto, vp_factorial)
from ckops.linalg import ModMatrix, howell_form
from ckops.multisym import MultiSeries, _as_multi, iter_partial, star_sum
from ckops.series import IntegerRing, ProfiniteRing, RationalRing, SeqWindow, Z, _phi_band, exact_int
from ckops.series import phi, valuation
from ckops.stable import CriterionReport, DnRecord, _coeff_residue


def span_enumerate(A: ModMatrix) -> set[tuple[int, ...]]:
    """Brute-force row span; exponential, for small test oracles only."""
    n = A.modulus
    vecs = {tuple([0] * A.cols)}
    for row in A.entries:
        new = set()
        for c in range(n):
            scaled = tuple((c * x) % n for x in row)
            for v in vecs:
                new.add(tuple((a + b) % n for a, b in zip(v, scaled)))
        vecs = new
    return vecs


def vdm_value(nodes) -> int:
    """Determinant of the binomial-column matrix (C(a_i, k))_{k,i}:
    prod_{s>t} (a_s - a_t) / prod_{k<n} k!.  Always an integer."""
    nodes = list(nodes)
    if len(set(nodes)) != len(nodes):
        raise ValueError("repeated entries")
    n = len(nodes)
    num = 1
    for s in range(n):
        for t in range(s):
            num *= nodes[s] - nodes[t]
    den = 1
    for k in range(1, n):
        den *= math.factorial(k)
    q = Fraction(num, den)
    if q.denominator != 1:
        raise AssertionError("binomial Vandermonde determinant must be integral")
    return int(q)


def lg_by_powers(r: int, T: int) -> TruncSeries:
    """lg_r = (1/r!) log(1-x)^r as r-1 truncated Fraction series products
    of lg_1: the route lg_series's Stirling recurrence replaced."""
    if r == 0:
        return TruncSeries.one(Q, T)
    lg1 = TruncSeries(Q, T, [0] + [Fraction(-1, i) for i in range(1, T + 1)])
    out = lg1
    for _ in range(r - 1):
        out = out * lg1
    return out.scale(Fraction(1, math.factorial(r)))


def assemble_lg(coeffs: Sequence[Fraction | int], T: int) -> TruncSeries:
    """sum_i coeffs[i] * lg_i truncated at T."""
    out = TruncSeries.zero(Q, T)
    for i, c in enumerate(coeffs):
        if c:
            out = out + lg_series(i, T).scale(Fraction(c))
    return out


def combine_by_terms(ring, values, rows) -> list:
    """ring.combine one ring operation per term: acc = acc + v * w from
    ring.zero(), skipping only a zero integer weight."""
    out = []
    for row in rows:
        acc = ring.zero()
        for v, w in zip(values, row):
            if w:
                acc = acc + v * w
        out.append(acc)
    return out


def matvec(ring, values, cols) -> list:
    """[sum_i values[i] * cols[i][d] for each d] in one call, the matrix
    read afresh: the kernel that ring.prepare and ring.apply split.  Q sums
    integer numerators, values and matrix each over one common denominator;
    a profinite output has, per prime, the least precision of every value
    and every matrix entry in its sum."""
    if isinstance(ring, RationalRing):
        Lv = math.lcm(*(v.denominator for v in values))
        Lc = math.lcm(*(c.denominator for col in cols for c in col))
        nums = [v.numerator * (Lv // v.denominator) for v in values]
        mat = [[c.numerator * (Lc // c.denominator) for c in col] for col in cols]
        return [Fraction(sum(map(mul, nums, row)), Lv * Lc) for row in zip(*mat)]
    if isinstance(ring, IntegerRing):
        return [sum(map(mul, values, row)) for row in zip(*cols)]
    rows = list(zip(*cols))
    out = [({}, {}) for _ in rows]
    for p, e in ring.budget.full_prec.items():
        res = [v.residue[p] for v in values]
        low = min((v.prec[p] for v in values), default=e)
        for (r, k), row in zip(out, rows):
            k[p] = least = min(low, *[c.prec[p] for c in row])
            r[p] = sum(map(mul, res, [c.residue[p] for c in row])) % p**least
    return [ProfiniteApprox._trusted(ring.budget, r, k) for r, k in out]


def compose_by_matvec(C, H2) -> TruncSeries:
    """Composer.compose with the one-shot kernel: H2's coefficients, coerced
    into C's ring, against the table's leading columns, read afresh."""
    T = min(C.H.trunc, H2.trunc)
    a = [C.ring.coerce(c) for c in H2.coeffs[:T + 1]]
    return TruncSeries(C.ring, T, matvec(C.ring, a, [U.coeffs[:T + 1] for U in C.U[:T + 1]]))


def compose_by_scaling(C, H2) -> TruncSeries:
    """Composer.compose one scaled series per term: out + U_i.scale(a_i)
    from the zero series, no term skipped."""
    T = min(C.H.trunc, H2.trunc)
    out = TruncSeries.zero(C.ring, T)
    for i in range(T + 1):
        out = out + C.U[i].truncate(T).scale(H2.coeffs[i])
    return out


def phi_by_steps(G: TruncSeries, n: int = 1) -> TruncSeries:
    """Phi^n(G) as n single steps [x^k] Phi(H) = k h_k - (k+1) h_(k+1), each
    a new series: the loop series.phi's cached band replaced.  A profinite
    [x^k] keeps the least precision of h_k and h_(k+1), even where the
    weight k is 0."""
    if G.trunc < n:
        raise TruncationExhausted(f"phi^{n} needs truncation >= {n}")
    H = G
    for _ in range(n):
        T = H.trunc - 1
        H = TruncSeries(H.ring, T, [k * H.coeffs[k] - (k + 1) * H.coeffs[k + 1] for k in range(T + 1)])
    return H


def validating_zip(x: ProfiniteApprox, y, fn) -> ProfiniteApprox:
    """ProfiniteApprox's binary kernel before trusted construction: y (an
    int, a Fraction or a value) embedded through the public constructor, the
    least precision per prime, fn of the residues reduced mod p**k, and the
    result built through the public constructor again."""
    B = x.budget
    if not isinstance(y, ProfiniteApprox):
        y = ProfiniteApprox(B, {p: rational_mod(y, p**e) for p, e in zip(B.primes, B.exponents)})
    prec = {p: min(x.prec[p], y.prec[p]) for p in B.primes}
    res = {
        p: fn(x.residue[p], y.residue[p]) % (p ** prec[p]) if prec[p] else 0
        for p in B.primes
    }
    return ProfiniteApprox(B, res, prec)


def twisted_rule(b: ProfiniteApprox, c: ProfiniteApprox) -> bool:
    """The closed per-prime integrality rule of the twisted Adams operation
    with parameters (b, c): at every budget prime p, b_p = 0 within the
    budget or c_p a unit."""
    B = b.budget
    return all(
        b.residue_mod(p, B.exponent(p)) == 0 or c.residue_mod(p, 1) != 0 for p in B.primes
    )


def subst_first_by_powers(
    G: MultiSeries, P: MultiSeries, out_nvars: int, tail_positions
) -> MultiSeries:
    """multisym.subst_first with one MultiSeries per step: each slice of G
    at x_1^k a tuple-keyed series, each power P^(k-1) * P through
    ``MultiSeries.__mul__`` and each power times its slice added with
    ``MultiSeries.__add__``, the chain stopping once a power stores no
    coefficient.  The route the packed power chain replaced."""
    T = min(G.trunc, P.trunc)
    ring = G.ring
    slices: dict[int, MultiSeries] = {}
    for key, val in G.coeffs.items():
        k = key[0]
        sl = slices.get(k)
        if sl is None:
            sl = MultiSeries(ring, out_nvars, T)
            slices[k] = sl
        out_key = [0] * out_nvars
        for e, pos in zip(key[1:], tail_positions):
            out_key[pos] = e
        if sum(out_key) <= T:
            cur = sl.coeffs.get(tuple(out_key))
            sl.coeffs[tuple(out_key)] = val if cur is None else cur + val
    out = MultiSeries(ring, out_nvars, T)
    if not slices:
        return out
    kmax = max(slices)
    power = MultiSeries(ring, out_nvars, T, {(0,) * out_nvars: 1})
    for k in range(kmax + 1):
        if k > 0:
            power = power * P
            if not power.coeffs:
                break
        if k in slices:
            out = out + power * slices[k]
    return out


def iter_partial_by_subsets(G, m: int) -> MultiSeries:
    """The subset sum of multisym.iter_partial in G's own ring (at m = 0
    it is G - G(0, x_2, ...)): one ``subst_first_by_powers`` per subset of
    the m + 1 head variables, each added signed to a running series, so
    ``MultiSeries.__add__`` prunes every partial sum.  The route that the
    integer numerators and the one substitution per subset size replaced."""
    M = _as_multi(G)
    out_n, T = M.nvars + m, M.trunc
    tail = list(range(m + 1, out_n))
    out = MultiSeries(M.ring, out_n, T)
    for r in range(m + 2):
        for sub in combinations(range(m + 1), r):
            star = star_sum(list(sub), out_n, T, M.ring)
            out = out + subst_first_by_powers(M, star, out_n, tail).scale((-1) ** (m + 1 - r))
    return out


def multi_mul_by_terms(A: MultiSeries, B) -> MultiSeries:
    """A * B with tuple keys: every pair of terms within the truncation adds
    its exponent tuples, and the sum is pruned once at the end: a value
    goes when it is zero and, over Zhat, known to the full budget exponent
    at every prime (a scalar B scales).  The route the packed-integer
    kernel of MultiSeries.__mul__ replaced."""
    if not isinstance(B, MultiSeries):
        return A.scale(B)
    T = min(A.trunc, B.trunc)
    out = MultiSeries(A.ring, A.nvars, T)
    acc = out.coeffs
    for k1, v1 in A.coeffs.items():
        d1 = sum(k1)
        if d1 > T:
            continue
        for k2, v2 in B.coeffs.items():
            if d1 + sum(k2) > T:
                continue
            key = tuple(a + b for a, b in zip(k1, k2))
            cur = acc.get(key)
            prod = v1 * v2
            acc[key] = cur + prod if cur is not None else prod
    ring = A.ring
    full = ring.budget.full_prec if isinstance(ring, ProfiniteRing) else None
    for key in [k for k, v in acc.items()
                if ring.is_zero(v, k) and (full is None or v.prec == full)]:
        del acc[key]
    return out


def s_criterion_by_windows(G: TruncSeries, primes=None) -> CriterionReport:
    """The congruences of s_criterion, each window sum
    sum_{i=j}^{m-1} C(i,j) a_i mod p^n formed afresh with one coefficient
    read per term: the route s_criterion's running sums replaced.  Takes
    only valid ``primes``."""
    T = G.trunc
    if not isinstance(G.ring, ProfiniteRing):  # a non-integer is an error, never a witness
        for i, c in enumerate(G.coeffs):
            exact_int(c, i)
    if primes is None:
        if isinstance(G.ring, ProfiniteRing):
            primes = list(G.ring.budget.primes)
        else:
            primes = primes_by_sieve(T + 1)
    skipped = []
    for p in sorted(primes):
        nmax, _ = largest_prime_power(p, T + 1)
        for n in range(1, nmax + 1):
            q = p**n
            for m in range(q, T + 2, q):
                for j in range(0, m, p):
                    try:
                        s = 0
                        for i in range(j, m):
                            s += math.comb(i, j) * _coeff_residue(G, i, p, n)
                        if s % q:
                            return CriterionReport(False, (p, n, m, j), skipped)
                    except PrecisionError:
                        skipped.append((p, n, m))
                        break
    return CriterionReport(True, None, skipped)


def _phi_image_rows(D: int, r: int, q: int) -> list[list[int]]:
    """Truncations to degree < D of Phi^r(x^k), k = 1..D+r-1, mod q: these
    span the full image of Phi^r on series, reduced mod (q, x^D), read off
    the band of Phi^r at truncation D+r-1."""
    rows = _phi_band(r, D + r - 1)
    return [[rows[d][k] % q for d in range(D)] for k in range(1, D + r)]


def _phi_image_lattice(D: int, r: int, q: int) -> ModMatrix:
    """The image lattice L_r of Phi^r mod (q, x^D) as the Howell form of
    ``_phi_image_rows``: the generating set stable._stable_lattice replaced
    with the unit Adams series."""
    return howell_form(ModMatrix(q, _phi_image_rows(D, r, q), cols=D))


def phi_image_walk(m: int, q: int) -> ModMatrix:
    """L_r mod (q, x^m) walked from r = 1 to the chain's first repeat, where
    it stays (q | m, so L_(r+1) = Phi(L_r)): the level walk s_oracle ran
    before it read ``_stable_lattice``."""
    cur = _phi_image_lattice(m, 1, q)
    r = 1
    while (nxt := _phi_image_lattice(m, r + 1, q)) != cur:
        cur, r = nxt, r + 1
    return cur


def to_e_basis_by_differences(mono_coeffs) -> NumericalPoly | None:
    """to_e_basis by finite differences, e_n = (-1)^n (Delta^n f)(0) with f
    evaluated at 0..n: the route its Stirling band replaced."""
    cs = [Q.coerce(c) for c in mono_coeffs]

    def f(x: int) -> Fraction:
        acc = Fraction(0)
        for j, c in enumerate(cs):
            acc += c * x**j
        return acc

    out = []
    for n in range(len(cs)):
        delta = sum((-1) ** (n - k) * math.comb(n, k) * f(k) for k in range(n + 1))
        e_n = (-1) ** n * delta
        if e_n.denominator != 1:
            return None
        out.append(int(e_n))
    return NumericalPoly(tuple(out))


def _lift(x, rng):
    """x with each profinite value, alone or in a TruncSeries or MultiSeries,
    replaced by a random integer consistent with its residues and
    precisions; any other argument as it is."""
    if isinstance(x, ProfiniteApprox):
        r, m = crt_lift([(x.residue[p], p**k) for p, k in x.prec.items()])
        return r + m * rng.randrange(-x.budget.modulus, x.budget.modulus)
    if isinstance(x, TruncSeries) and isinstance(x.ring, ProfiniteRing):
        return TruncSeries(Z, x.trunc, [_lift(c, rng) for c in x.coeffs])
    if isinstance(x, MultiSeries) and isinstance(x.ring, ProfiniteRing):
        return MultiSeries(Z, x.nvars, x.trunc, {k: _lift(v, rng) for k, v in x.coeffs.items()})
    return x


def _by_key(out) -> dict:
    """A route's output as {key: value}: degrees, exponent tuples, sequence
    indices or list positions."""
    if isinstance(out, MultiSeries):
        return dict(out.coeffs)
    if isinstance(out, SeqWindow):
        return dict(enumerate(out.values, out.start))
    return dict(enumerate(out.coeffs if isinstance(out, TruncSeries) else out))


def lift_check(route, args, budget, rng, lifts: int = 3) -> list | None:
    """The random-lift soundness check of a route over Zhat: run ``route``
    on ``args`` and, ``lifts`` times, on an integer lift of them (``_lift``).
    Every profinite output value must agree with the lift's output modulo
    p^(its precision) at each prime, and a key the profinite output does
    not hold (a pruned MultiSeries key) is read as the exact 0, modulo the
    full ``budget``.  Returns the disagreements as (key, prime, profinite
    value, integer value); None when the profinite route raises
    PrecisionError, which claims no digits."""
    try:
        got = _by_key(route(*args))
    except PrecisionError:
        return None
    zero = ProfiniteApprox.from_int(budget, 0)
    bad = []
    for _ in range(lifts):
        want = _by_key(route(*[_lift(a, rng) for a in args]))
        for key in got.keys() | want.keys():
            v, x = got.get(key, zero), want.get(key, 0)
            bad += [(key, p, v, x) for p, k in v.prec.items() if (x - v.residue[p]) % p**k]
    return bad


def primes_by_sieve(n: int) -> list[int]:
    """Primes <= n by the sieve of Eratosthenes: the route
    ``arith.set_primes_upto`` had before it read ``is_prime``."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(range(i * i, n + 1, i))
    return [i for i in range(2, n + 1) if sieve[i]]


def dn_by_derivation(n: int) -> DnRecord:
    """d_n as ``stable.dn`` derived it before it became a table: every call
    lists the primes up to n + 1 and sums the floor formula afresh."""
    if n < 0:
        raise ValueError("n must be >= 0")
    per = {}
    for p in set_primes_upto(n + 1):
        k = n // (p - 1)
        v = k + vp_factorial(k, p) - vp_factorial(n, p)
        if v:
            per[p] = v
    value = 1
    for p, e in per.items():
        value *= p**e
    return DnRecord(n, value, per)


def integer_coefficients(S) -> bool:
    """All coefficients of a TruncSeries or MultiSeries integral: exact
    denominators over Q, trivially true over Z; profinite residues are
    integer-consistent by CRT construction, so the profinite answer is True
    (documented finite-precision surrogate).  The membership routes read
    divisibility on L*G's integer numerators instead."""
    if not isinstance(S.ring, RationalRing):
        return True
    vals = S.coeffs.values() if isinstance(S, MultiSeries) else S.coeffs
    return all(v.denominator == 1 for v in vals)


def in_Qnm_by_fractions(G: TruncSeries, n: int, m: int) -> bool:
    """The route ``classify.in_Qnm`` had before it read L*G's integer
    numerators: partial^(n-1) G in G's ring (Fractions over Q), integral
    when every denominator is 1, then the valuation of that series."""
    if n < 1:
        v = valuation(G)
        return integer_coefficients(G) and (v is None or v >= m)
    if not G.ring.is_zero(G.coeffs[0], 0):
        raise NotInGroup("membership for n >= 1 needs a zero constant term")
    if G.trunc < n:
        raise PrecisionError(f"need truncation >= {n}, have {G.trunc}")
    D = iter_partial(G, n - 1)
    if not integer_coefficients(D):
        return False
    v = D.total_valuation()
    return v is None or v >= m


def in_Opnm_phi_by_fractions(G: TruncSeries, n: int, m: int) -> bool:
    """The route ``classify.in_Opnm_phi`` had before it read L*G's integer
    numerators: Phi^n(G) built in G's ring (Fractions over Q), integral when
    every denominator is 1, then the valuation of that series."""
    if n < 1:
        raise ValueError("the Phi route applies to n >= 1")
    if G.trunc < n:
        raise PrecisionError(f"need truncation >= {n}, have {G.trunc}")
    if isinstance(G.ring, ProfiniteRing):
        for i, c in enumerate(G.coeffs[1:], 1):
            G.ring.is_zero(c, i)
    H = phi(G, n)
    if not integer_coefficients(H):
        return False
    v = valuation(H)
    return v is None or v >= m - n
