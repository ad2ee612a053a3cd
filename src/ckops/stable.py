"""The stable-operation set: the divisibility criterion, the image-lattice
oracle, the integers d_n, the basis series G_n / F_n, decomposition against
the basis, desuspension-tower membership, and the multiplicative layer.

Two independent membership routes are kept deliberately: s_criterion tests
the explicit binomial-sum congruences, s_oracle tests membership in the
stable lattice, spanned by the unit Adams series, of each quotient window;
their agreement is the module's central check.  One memoized builder,
``_stable_lattice``, serves s_oracle, tower_member and ``kgr.interval_in_N``.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .arith import (
    PrecisionError,
    PrimeBudget,
    ProfiniteApprox,
    Struct,
    crt_lift,
    gen_binomial,
    is_prime,
    is_unit,
    largest_prime_power,
    modinv,
    set_primes_upto,
    vp,
    vp_factorial,
    vp_split,
)
from .series import (
    ProfiniteRing,
    TruncationExhausted,
    TruncSeries,
    adams_series,
    exact_int,
    phi,
)


class DnRecord(Struct):
    """The leading-coefficient invariant d_n at index n with its
    factorization ``per_prime``, {p: v_p(d_n)}."""

    __slots__ = ("n", "value", "per_prime")

    def factorization(self) -> str:
        if not self.per_prime:
            return "1"
        return "*".join(
            f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(self.per_prime.items())
        )


def dn(n: int) -> DnRecord:
    """d_n, via v_p(d_n) = k + v_p(k!) - v_p(n!) with k = floor(n/(p-1));
    v_p vanishes once p - 1 > n."""
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


def dn_tilde(n: int) -> int:
    """n! * d_n, the interval invariant of the sequence model."""
    return math.factorial(n) * dn(n).value


def a_min(p: int, n: int) -> list[int]:
    """First n positive integers coprime to p, ascending."""
    out = []
    k = 1
    while len(out) < n:
        if k % p:
            out.append(k)
        k += 1
    return out


# ---------------------------------------------------------------------------
# membership: criterion route and lattice-oracle route


class CriterionReport(Struct):
    """Verdict of s_criterion: the failing instance (p, n, m, j) as
    ``witness``, and the instances (p, n, m) beyond precision in ``skipped``."""

    __slots__ = ("ok", "witness", "skipped")

    def __bool__(self):
        return self.ok


def _coeff_residue(G: TruncSeries, i: int, p: int, k: int) -> int:
    """[x^i] G mod p^k; a Q or Z coefficient must be an integer (``exact_int``),
    a Zhat one must hold k digits at p (PrecisionError naming i and both counts)."""
    c = G.coeffs[i]
    if not isinstance(c, ProfiniteApprox):
        return exact_int(c, i) % p**k
    try:
        return c.residue_mod(p, k)
    except PrecisionError:
        raise PrecisionError(f"coefficient {i} has {c.prec[p]} of the {k} digits "
                             f"needed at p={p}") from None


def _check_primes(G: TruncSeries, primes, caller: str) -> None:
    """ValueError naming the first entry of ``primes`` that is not a prime,
    or else, for Zhat G, every one outside G's budget."""
    for p in primes:
        if type(p) is not int or not is_prime(p):
            raise ValueError(f"{caller} prime {p!r} is not a prime")
    if isinstance(G.ring, ProfiniteRing):
        missing = [p for p in primes if p not in G.ring.budget.moduli]
        if missing:
            what = f"prime {missing[0]} is" if len(missing) == 1 else f"primes {missing} are"
            raise ValueError(f"{caller} {what} outside the budget primes {G.ring.budget.primes}")


def s_criterion(G: TruncSeries, primes=None) -> CriterionReport:
    """Finite check of the stable-membership congruences: for every prime p,
    every n with p^n <= m, every multiple m of p^n with m <= T+1, and every
    j < m divisible by p (j = 0 included),
        sum_{i=j}^{m-1} C(i,j) a_i = 0  (mod p^n).

    As C(i, j) = 0 for i < j, the sum at j = kp is the running sum
    acc[k] = sum_{i<m} C(i, kp) a_i, the same for every n: one pass per p
    reads each a_i once, mod the largest p^n <= T+1 (or with the digits it
    has), and keeps acc at every multiple m of p, which each (n, m) tests
    mod p^n.  That is O(T^2/p) multiply-adds per prime, so at most that
    per prime power, where summing each window afresh costs ~T^3/p^2.
    Instances are tested in ascending (p, n, m, j); the first failure is
    the ``witness``.  A coefficient below m without n digits at p skips
    (p, n, m) and every later m: such instances are reported in
    ``skipped``, never silently passed.  ``primes`` must be primes, within
    the budget of a profinite G; anything else raises ValueError, which
    names every prime outside that budget.

    This is the production route for stable membership; s_oracle is its
    oracle (cross-checked in the tests and in the ``s-dual-route`` suite).
    """
    T = G.trunc
    profinite = isinstance(G.ring, ProfiniteRing)
    if not profinite:  # a non-integer is an error, never a witness
        for i, c in enumerate(G.coeffs):
            exact_int(c, i)
    if primes is None:
        primes = G.ring.budget.primes if profinite else set_primes_upto(T + 1)
    else:
        primes = list(primes)
        _check_primes(G, primes, "s_criterion")
    skipped = []
    for p in sorted(primes):
        nmax, _ = largest_prime_power(p, T + 1)
        end = (T + 1) // p * p
        digits = []  # digits[i]: how many p-adic digits of a_i are read, <= nmax
        acc = [0] * (end // p)
        sums = {}  # sums[m]: the running sums acc[k], k < m/p, at window m
        for m in range(p, end + 1, p):
            for i in range(m - p, m):
                d = min(nmax, G.coeffs[i].prec[p]) if profinite else nmax
                digits.append(d)
                r = _coeff_residue(G, i, p, d)
                if r:
                    acc[: i // p + 1] = [
                        a + math.comb(i, j) * r for a, j in zip(acc, range(0, i + 1, p))
                    ]
            sums[m] = acc[: m // p]
        for n in range(1, nmax + 1):
            q = p**n
            # a window is readable mod q while every coefficient below it is
            readable = next((i for i, d in enumerate(digits) if d < n), end)
            for m in range(q, T + 2, q):
                if m > readable:
                    skipped.extend((p, n, rest) for rest in range(m, T + 2, q))
                    break
                for k, s in enumerate(sums[m]):
                    if s % q:
                        return CriterionReport(False, (p, n, m, k * p), skipped)
    return CriterionReport(True, None, skipped)


# bound on the stable lattices kept per process: a key (D, p, e) comes from tower_member
# (D = trunc + 1), an s_oracle window (m, p, n) or interval_in_N (len(v), p, e), so a
# session revisits few, and the bound keeps a long one from growing
_STABLE_LATTICE_CACHE_SIZE = 256


@lru_cache(maxsize=_STABLE_LATTICE_CACHE_SIZE)
def _stable_lattice(D: int, p: int, e: int):
    """The Howell form of the unit Adams series (1-x)^k mod (p^e, x^D),
    1 <= k < D + e, p not dividing k: an immutable ModMatrix shared by
    every caller with the same (D, p, e).

    It is the image L_r of Phi^r mod (p^e, x^D) for every r >= e.  L_r is
    spanned by Phi^r(x^k), k < D + r (the rest vanish below degree D).  As
    Phi (1-x)^k = k (1-x)^k and the change of basis from x^k to (1-x)^k is
    triangular with diagonal +-1, L_r is the span of k^r (1-x)^k, k < D + r.
    For r >= e a k divisible by p adds 0 and a unit k^r changes no span, so
    L_r = U_r, the span of the unit rows with k < D + r; and U_r <= U_(r+1)
    = L_(r+1) <= L_r: the chain is constant from r = e.  This is the
    paper's generation of stable operations by multiplicative ones at
    finite precision."""
    from .linalg import ModMatrix, howell_form

    rows = [[(-1) ** j * math.comb(k, j) for j in range(D)] for k in range(1, D + e) if k % p]
    return howell_form(ModMatrix(p**e, rows, cols=D))


def _in_stable_lattice(G: TruncSeries, D: int, p: int, e: int) -> bool:
    """Does G mod (p^e, x^D) lie in ``_stable_lattice(D, p, e)``?"""
    from .linalg import in_howell_span

    return in_howell_span(_stable_lattice(D, p, e), [_coeff_residue(G, i, p, e) for i in range(D)])


def s_oracle(G: TruncSeries, p: int, e: int, T: int) -> bool:
    """Membership in the stable lattice of every quotient window.

    For each n <= e with q = p^n <= T+1 and m the largest multiple of q at
    most T+1, the ideal (q, x^m) is Phi-stable: the step x^m -> x^(m-1)
    carries the factor -m = 0 mod q, so Phi induces an operator on
    Z/q[x]/(x^m), where the image of Phi^r is L_r mod (q, x^m).  G must lie
    in L_r for every r; the chain decreases and is constant from r = n,
    where it is ``_stable_lattice(m, p, n)``, the span of the unit Adams
    series: one membership test per window decides.

    The oracle for the production route s_criterion, which it must agree
    with (cross-checked in the tests and in the ``s-dual-route`` suite).
    ``p`` must be a prime, a budget prime for a profinite G, and e and T
    must be >= 0: ValueError.  e = 0 tests no window.
    """
    _check_primes(G, [p], "s_oracle")
    for name, value in (("e", e), ("T", T)):
        if value < 0:
            raise ValueError(f"s_oracle {name} must be >= 0, got {value}")
    if T > G.trunc:
        raise PrecisionError("oracle window exceeds the stored truncation")
    for n in range(1, e + 1):
        q = p**n
        if q > T + 1:
            break
        if not _in_stable_lattice(G, (T + 1) // q * q, p, n):
            return False
    return True


def tower_member(G: TruncSeries, n: int, budget: PrimeBudget) -> bool:
    """Does G desuspend from level k+n for every k, within the budget and
    G's truncation window?

    The tower maps compose to Phi-powers, so this is membership of G's
    window mod (p^e, x^D), D = trunc + 1, in the image lattice L_r of Phi^r
    for every r >= n.  The chain decreases and is constant from r = e, where
    it is ``_stable_lattice(D, p, e)``, the span of the unit Adams series:
    one certificate-free row-span test per budget prime decides, whatever
    the level n >= 1.  e is the budget exponent, lowered to the least
    precision of a profinite G.  The lattice depends only on (D, p, e):
    each process builds it once per key and keeps at most
    _STABLE_LATTICE_CACHE_SIZE of them.

    Pinned by tests for j <= 4: d x^j (stored at truncation j) passes level
    j+1 when d_j divides d, and fails for d = 1 and d = d_j/2.  This is no
    "iff" at finite precision: at budget (p)^e, d_j/p x^j passes level j+1
    exactly while e < e_min(p, j) = v_p(d_j) + v_p(j!) - (j mod (p-1)),
    which is j + v_2(j!) at p = 2.  So e_min(p, j) is the least e at which
    d_j/p x^j leaves the unit-Adams span mod (p^e, x^(j+1)), where a
    derivation of the law would start.  The law is a conjecture, not
    derived here; a test checks it at every j with p | d_j for p = 2
    (j <= 16), p = 3 (j <= 20), p = 5 and 7 (j <= 22) and p = 11 (j <= 24).
    It does not extend to d_j/p^k for k >= 2.

    A Q or Z coefficient that is not an integer raises ValueError
    (``exact_int``) at every level, n < 1 (always a member) included, as
    does a budget prime outside a profinite G's budget, each one named
    (``_check_primes``).
    """
    _check_primes(G, budget.primes, "tower_member")
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
            i = next(i for i, c in enumerate(G.coeffs) if c.prec[p] == 0)
            raise PrecisionError(f"coefficient {i} has no digits at p={p}")
        if not _in_stable_lattice(G, D, p, e):
            return False
    return True


# ---------------------------------------------------------------------------
# basis construction


class BasisSeries(Struct):
    """A basis element: G_n (profinite combination of unit Adams series) or
    F_n (additionally integer-consistent, with its canonical integer
    coefficient vector).  ``kind`` is "G" or "F"; ``combination`` lists
    (coefficient, integer node) pairs."""

    __slots__ = ("kind", "n", "series", "int_coeffs", "combination")

    def __init__(self, kind: str, n: int, series: TruncSeries,
                 int_coeffs: list[int] | None = None, combination: list | None = None):
        super().__init__(kind, n, series, int_coeffs, combination)

    def to_json(self):
        out = {"kind": self.kind, "n": self.n, "series": self.series.to_json()}
        if self.int_coeffs is not None:
            out["int_coeffs"] = list(self.int_coeffs)
        return out


def _glued_nodes(budget: PrimeBudget, count: int) -> list[int]:
    """Integer lifts of the per-prime minimal unit sequences, glued by CRT
    over the budget modulus (least nonnegative).  A_node then has exact
    integer coefficients while matching the prescribed unit at every
    budget prime.  The list is prefix-stable in ``count``: G_i uses the
    first i+1 nodes, whose distinctness ``_NodeWeights`` checks."""
    mods = budget.moduli
    per_p = {p: a_min(p, count) for p in mods}
    return [crt_lift((per_p[p][i] % q, q) for p, q in mods.items())[0] for i in range(count)]


class _NodeWeights:
    """Weights of G_i = sum_{j<=i} x_ij A_(a_j) on the prefixes of one node
    list, as residues mod p^e_p per budget prime: the last column of the
    inverse binomial Vandermonde matrix, x_ij = top_i / prod_{l<=i, l != j}
    (a_j - a_l) with top_i = (-1)^i d_i i!.

    Each node denominator is kept per prime as its p-adic valuation and its
    unit part mod p^e_p, extended by one factor per added node, so x_ij =
    unit(top_i) unit_j^-1 p^(v(top_i) - v_j).  A denominator with v_j >
    v(top_i), i.e. a budget prime dividing a reduced weight denominator,
    raises PrecisionError naming it.  ``weights`` is called with i
    nondecreasing.
    """

    def __init__(self, nodes: list[int], budget: PrimeBudget):
        self.nodes = nodes
        self.budget = budget
        self.mods = budget.moduli
        self.val = {p: [] for p in self.mods}
        self.unit = {p: [] for p in self.mods}
        self.size = 0  # nodes multiplied in; stops before a repeated node

    def _extend(self, i: int) -> None:
        while self.size <= i:
            a = self.nodes[self.size]
            diffs = [b - a for b in self.nodes[: self.size]]
            if 0 in diffs:
                return
            for p, q in self.mods.items():
                val, unit = self.val[p], self.unit[p]
                v_new, u_new = 0, (-1) ** self.size  # prod (a - b) = (-1)^size prod diffs
                for j, d in enumerate(diffs):
                    v, d = vp_split(d, p)  # d != 0: a repeated node returned above
                    val[j] += v
                    unit[j] = unit[j] * d % q
                    v_new += v
                    u_new = u_new * d % q
                val.append(v_new)
                unit.append(u_new % q)
            self.size += 1

    def weights(self, i: int, di: DnRecord) -> dict:
        """x_ij for j <= i per prime; ``di`` is dn(i)."""
        self._extend(i)
        if self.size <= i:
            raise PrecisionError("budget too small to separate the Adams nodes")
        top = (-1) ** i * di.value * math.factorial(i)
        out = {}
        for p, q in self.mods.items():
            vt = di.per_prime.get(p, 0) + vp_factorial(i, p)
            val = self.val[p]
            if max(val) > vt:
                raise PrecisionError(
                    f"G_{i} weights have a denominator divisible by p={p}: "
                    f"budget precision {p}^{self.budget.exponent(p)} is too shallow"
                )
            t = top // p**vt % q
            out[p] = [t * pow(u, -1, q) * pow(p, vt - v, q) % q for u, v in zip(self.unit[p], val)]
        return out


def _adams_table(nodes: list[int], T: int, budget: PrimeBudget) -> list[dict]:
    """table[k][p][j] = [x^k] A_(a_j) = (-1)^k C(a_j, k) mod p^e_p for k <= T.
    The binomials are exact integers, updated in k."""
    mods = budget.moduli
    table, binoms = [], [1] * len(nodes)
    for k in range(T + 1):
        table.append({p: [(-b if k % 2 else b) % q for b in binoms] for p, q in mods.items()})
        binoms = [b * (a - k) // (k + 1) for b, a in zip(binoms, nodes)]
    return table


def _adams_coeff(weights: dict, row: dict, mods: dict) -> dict:
    """Per-prime residues mod p^e_p of [x^k] sum_j w_j A_(a_j), from the
    table row of degree k."""
    return {p: sum(map(operator.mul, w, row[p])) % mods[p] for p, w in weights.items()}


def _combination(weights: dict, nodes: list[int], budget: PrimeBudget) -> list:
    """[(w_j, a_j), ...] over the weighted prefix of the nodes."""
    return [(ProfiniteApprox._trusted(budget, dict(zip(weights, col)), budget.full_prec), a)
            for col, a in zip(zip(*weights.values()), nodes)]


def _require_leading_term(kind: str, n: int, T: int) -> None:
    """G_n and F_n are pinned by their leading term d_n x^n, which a
    truncation below n cannot hold."""
    if n > T:
        raise TruncationExhausted(
            f"{kind}_{n} needs truncation >= {n} for its leading term d_{n} x^{n}, got T={T}"
        )


def construct_Gn(n: int, T: int, budget: PrimeBudget) -> BasisSeries:
    """Profinite combination of n+1 unit Adams series with leading term
    d_n x^n, in closed form at the glued integer nodes a_0..a_n:
    [x^k] G_n = (-1)^k sum_j x_j C(a_j, k) with the weights x_j of
    ``_NodeWeights``, summed per prime.  ``linalg.solve_vandermonde``
    is the test oracle for this route.
    """
    _require_leading_term("G", n, T)
    nodes = _glued_nodes(budget, n + 1)
    weights = _NodeWeights(nodes, budget).weights(n, dn(n))
    full, mods = budget.full_prec, budget.moduli
    coeffs = [ProfiniteApprox._trusted(budget, _adams_coeff(weights, row, mods), full)
              for row in _adams_table(nodes, T, budget)]
    G = TruncSeries._trusted(ProfiniteRing(budget), T, coeffs)
    return BasisSeries("G", n, G, combination=_combination(weights, nodes, budget))


def construct_Fn(n: int, T: int, budget: PrimeBudget) -> BasisSeries:
    """Integer-consistent basis element with leading term d_n x^n.

    F_0 and F_1 are the canonical closed forms A_1 and A_(-1) - A_1 (these
    pin the sequence model's windows).  For n >= 2 the G_n-descent runs on
    node weights: G_i = sum_{j<=i} x_ij A_(a_j) on a prefix of the same
    glued nodes, so F = sum_j c_j A_(a_j) is one weight vector mod p^e_p
    per prime, starting at G_n's.  Step i > n reads
    [x^i]F = (-1)^i sum_j c_j C(a_j, i), lifts its correction multiplier
    b_i by CRT to an integer and subtracts b_i x_ij from c_j; the x_ij come
    from one ``_NodeWeights`` table per call, extended node by node.  Step i
    fixes [x^i]F = ints[i] mod p^e_p, and the later G_j (j > i) vanish below
    degree j, so F_n's series is its integer vector at full budget
    precision.  ``combination`` holds the final weights of the nodes used,
    sorted by node.
    """
    _require_leading_term("F", n, T)
    ring, one = ProfiniteRing(budget), ProfiniteApprox.from_int(budget, 1)
    if n < 2:
        ints = ([1, -1] + [0] * (T - 1) if n == 0 else [0, 2] + [1] * (T - 1))[:T + 1]
        comb = [(one, 1)] if n == 0 else [(one, -1), (-one, 1)]
        return BasisSeries("F", n, TruncSeries(ring, T, ints), ints, combination=comb)
    e, mods = budget.full_prec, budget.moduli
    nodes = _glued_nodes(budget, max(n, T) + 1)
    lagrange = _NodeWeights(nodes, budget)
    dn_n = dn(n)
    c = lagrange.weights(n, dn_n)
    table = _adams_table(nodes, T, budget)
    ints = [0] * n + [dn_n.value] + [0] * (T - n)
    for i in range(n + 1, T + 1):
        s = _adams_coeff(c, table[i], mods)
        di = dn(i)
        v = {p: di.per_prime.get(p, 0) for p in e}
        # least-nonnegative representative modulo the *visible* part of d_i:
        # corrections beyond the budget exponent are invisible mod p^e_p, so
        # capping at e_p keeps the result integer-consistent at full
        # precision (the uncapped precondition would be unattainable here)
        visible = {p: p ** min(v[p], e[p]) for p in e}
        ints[i] = a_rep = crt_lift((s[p] % q, q) for p, q in visible.items())[0]
        # integer lift of ([x^i]F - a_rep)/d_i across the budget, skipping
        # primes where d_i already swallows the whole budget precision
        bpairs = []
        for p in e:
            if e[p] > v[p]:
                diff, q = (s[p] - a_rep) % mods[p], p ** (e[p] - v[p])
                if diff % p ** v[p]:
                    raise AssertionError("descent invariant broke")
                unit = modinv(di.value // p ** v[p], q)
                bpairs.append((diff // p ** v[p] * unit % q, q))
        b_int = crt_lift(bpairs)[0]
        if b_int:
            x = lagrange.weights(i, di)
            for p, m in mods.items():
                cp = c[p] + [0] * (i + 1 - len(c[p]))
                c[p] = [(cj - b_int * xj) % m for cj, xj in zip(cp, x[p])]
    comb = sorted(_combination(c, nodes, budget), key=lambda t: t[1])
    return BasisSeries("F", n, TruncSeries(ring, T, ints), ints, combination=comb)


def decompose_S0(G: TruncSeries, budget: PrimeBudget, family=None) -> list[int]:
    """Integer coordinates of G against F_0..F_T by triangular peel-off of
    the leading terms d_n x^n; a nonintegral quotient means G is not an
    integer combination within precision and raises with the degree; so
    does a Q or Z coefficient that is not an integer (``exact_int``)."""
    T = G.trunc
    if family is None:
        family = [construct_Fn(n, T, budget) for n in range(T + 1)]
    if isinstance(G.ring, ProfiniteRing):
        cur = [c.lift_symmetric() for c in G.coeffs]
    else:
        cur = [exact_int(c, i) for i, c in enumerate(G.coeffs)]
    out = []
    for i in range(T + 1):
        d = dn(i).value
        if cur[i] % d:
            raise ValueError(
                f"not in the integer span within precision: degree {i} "
                f"coefficient {cur[i]} is not divisible by d_{i} = {d}"
            )
        q = cur[i] // d
        out.append(q)
        if q:
            fi = family[i].int_coeffs
            for j in range(i, T + 1):
                cur[j] -= q * fi[j]
    return out


# ---------------------------------------------------------------------------
# multiplicative layer


class TwistedAdams(Struct):
    """Coefficient data of a twisted Adams operation at t = 1: ``witness`` is
    the (p, n) of a non-integral coefficient."""

    __slots__ = ("series", "integral", "witness")


def twisted_adams(b: ProfiniteApprox, c: ProfiniteApprox, T: int) -> TwistedAdams:
    """Coefficients a_n = (-1)^(n-1) b C(bc-1, n-1) / n of the twisted
    operation's characteristic series, with the integrality verdict.

    Each coefficient is computed per prime with honest precision (division
    by n consumes v_p(n) digits after the binomial's v_p((n-1)!)
    inflation).  The tests compare the verdict with the closed per-prime
    rule (b_p = 0 or c_p a unit), ``tests/oracles.py::twisted_rule``.
    """
    budget = b.budget
    if c.budget != budget:
        raise ValueError("mixed budgets")
    r = b * c - 1
    ring = ProfiniteRing(budget)
    coeffs = [ring.zero()]
    for n in range(1, T + 1):
        res, prec = {}, {}
        for p in budget.primes:
            infl = vp_factorial(n - 1, p)
            vn = vp(n, p)
            e = r.prec[p] - infl - vn
            if e < 1:
                raise PrecisionError(
                    f"coefficient {n} needs precision > {infl + vn} at p={p}"
                )
            bin_res = gen_binomial(r, n - 1, p, e + vn)
            val = (
                (-1) ** (n - 1) * b.residue_mod(p, e + vn) * bin_res
            ) % p ** (e + vn)
            if vn and val % p**vn:
                return TwistedAdams(None, False, (p, n))
            unit = n // p**vn
            res[p] = (val // p**vn) * modinv(unit, p**e) % p**e
            prec[p] = e
        coeffs.append(ProfiniteApprox._trusted(budget, res, prec))
    return TwistedAdams(TruncSeries._trusted(ring, T, coeffs), True, None)


def stable_mult_check(c: ProfiniteApprox, T: int) -> bool:
    """True iff c is a unit within budget, its Adams series passes the
    stability criterion, and Phi acts on it as multiplication by c."""
    if not is_unit(c):
        return False
    A = adams_series(c, T)
    if not s_criterion(A).ok:
        return False
    lhs = phi(A)
    rhs = A.truncate(T - 1).map_coeffs(lambda v: v * c)
    return lhs == rhs
