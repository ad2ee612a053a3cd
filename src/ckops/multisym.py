"""Multivariate truncated series, the formal-group-law partial derivative
and its iterates, double-symmetry detection, and symmetric integration.

The derivative here is the second difference with respect to the
multiplicative formal group law x+y-xy of connective K-theory, not a
calculus derivative.  Total-degree truncation throughout.

Storage discipline: every multivariate series that goes in or comes out is
a plain MultiSeries keyed by full exponent tuples, so a symmetry test reads
every coefficient and the data structure cannot assume the answer.  Inside
a product and a substitution the keys are packed into ints, bucketed by
total degree (``_Packing``), and only the kept keys are unpacked, once.
A Zhat zero known to fewer digits than the budget is kept (``_drops``), so
every later sum keeps its precision instead of reading it as an exact 0.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations
from operator import mul

from .arith import PrecisionError
from .series import Q, Z, ProfiniteRing, RationalRing, TruncSeries, all_zero, b_map, lg_series


class NotIntegrable(ArithmeticError):
    """The input was not double-symmetric within truncation."""


def _drops(ring):
    """The test by which a container drops a value: ``ring.is_zero`` (an
    unknown value raises PrecisionError naming ``at``) and, over Zhat, the
    full budget exponent at every prime."""
    if not isinstance(ring, ProfiniteRing):
        return ring.is_zero
    full = ring.budget.full_prec
    return lambda v, at=None: v.is_zero(at) and v.prec == full


class MultiSeries:
    """Plain (unsorted-key) container: dict from exponent tuple to value,
    truncated by total degree; zero coefficients are not stored.  Pruning
    asks ``_drops`` once per value: no unknown coefficient is ever stored,
    and a profinite zero known to fewer digits is, which ``is_zero`` and
    ``total_valuation`` read as zero."""

    __slots__ = ("ring", "nvars", "trunc", "coeffs")

    def __init__(self, ring, nvars: int, trunc: int, coeffs=None):
        self.ring, self.nvars, self.trunc, self.coeffs = ring, nvars, trunc, {}
        if coeffs:
            drops = _drops(ring)
            for key, val in coeffs.items():
                if len(key) != nvars:
                    raise ValueError(f"key {key} has arity {len(key)} != {nvars}")
                if sum(key) > trunc:
                    continue
                v = ring.coerce(val)
                if not drops(v, key):
                    self.coeffs[tuple(key)] = v

    def get(self, key):
        return self.coeffs.get(tuple(key), self.ring.zero())

    def is_zero(self):
        """Every stored value zero by ``ring.is_zero`` (``series.all_zero``)."""
        return all_zero(self.ring, self.coeffs.items())

    def _binop(self, other, fn):
        if not isinstance(other, MultiSeries) or other.nvars != self.nvars or self.ring != other.ring:
            raise ValueError("incompatible operands")
        T = min(self.trunc, other.trunc)
        a, b, zero = self.coeffs, other.coeffs, self.ring.zero()
        return MultiSeries(self.ring, self.nvars, T,
                           {key: fn(a.get(key, zero), b.get(key, zero)) for key in set(a) | set(b)})

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        if isinstance(c, int) and c == 0:
            return MultiSeries(self.ring, self.nvars, self.trunc)
        return MultiSeries(self.ring, self.nvars, self.trunc,
                           {key: val * c for key, val in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiSeries):
            return self.scale(other)
        if other.nvars != self.nvars or self.ring != other.ring:
            raise ValueError("incompatible operands")
        pk = _Packing(self.ring, self.nvars, min(self.trunc, other.trunc))
        return pk.series(pk.mul(pk.buckets(self.coeffs), pk.buckets(other.coeffs)))

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        if (self.ring, self.nvars, self.trunc) != (other.ring, other.nvars, other.trunc):
            return False
        return (self - other).is_zero()

    def __repr__(self):
        items = sorted(self.coeffs.items())[:6]
        body = ", ".join(f"{k}: {v}" for k, v in items)
        more = ", ..." if len(self.coeffs) > 6 else ""
        return f"MultiSeries({self.nvars} vars, T={self.trunc}, {{{body}{more}}})"

    def total_valuation(self) -> int | None:
        """Smallest total degree of a nonzero monomial, skipping stored
        values that are zero within their precision; None beyond trunc."""
        is_zero = self.ring.is_zero
        return min((sum(k) for k, v in self.coeffs.items() if not is_zero(v, k)), default=None)


def is_symmetric(M: MultiSeries) -> bool:
    """Coefficientwise symmetry under all variable permutations.  Each
    stored value is compared with the first of its orbit, or with zero
    where some permutation of its key is not stored (an exact zero, while a
    stored value may be a zero known to fewer digits).  A known nonzero
    difference decides False; otherwise an unknown difference raises
    PrecisionError naming its key (``series.all_zero``), whatever the
    order of the coefficients."""
    groups: dict[tuple, list] = {}
    for key, val in M.coeffs.items():
        groups.setdefault(tuple(sorted(key)), []).append((key, val))
    diffs = []
    for skey, items in groups.items():
        nperms = math.factorial(M.nvars) // math.prod(map(math.factorial, Counter(skey).values()))
        if len(items) == nperms:
            diffs += [(key, v - items[0][1]) for key, v in items[1:]]
        else:
            diffs += items
    return all_zero(M.ring, diffs)


def _as_multi(G) -> MultiSeries:
    """G as a plain container.  A univariate G keeps every coefficient that
    ``_drops`` keeps; an unknown one raises PrecisionError naming its degree."""
    if isinstance(G, TruncSeries):
        M = MultiSeries(G.ring, 1, G.trunc)
        drops = _drops(G.ring)
        for i, c in enumerate(G.coeffs):
            if not drops(c, i):
                M.coeffs[(i,)] = c
        return M
    if isinstance(G, MultiSeries):
        return G
    raise TypeError(f"cannot interpret {type(G).__name__} as a multivariate series")


# ---------------------------------------------------------------------------
# star sums and substitution


def star_sum(positions, nvars: int, trunc: int, ring=Q) -> MultiSeries:
    """Formal-group sum of the chosen variable positions (0-based) inside an
    nvars-variable series; the empty set gives 0.

    The law is x * y = x + y - xy, so the iterated sum over I is
    1 - prod_{i in I} (1 - x_i).
    """
    out = MultiSeries(ring, nvars, trunc)
    for r in range(1, min(len(positions), trunc) + 1):
        for sub in combinations(sorted(positions), r):
            key = [0] * nvars
            for i in sub:
                key[i] = 1
            out.coeffs[tuple(key)] = ring.coerce((-1) ** (r + 1))
    return out


class _Packing:
    """A series as T + 1 dicts, one per total degree, keyed by exponent
    tuples packed into ints in base T + 1: a product adds only keys whose
    degrees sum to at most T, so no exponent exceeds T and no addition
    carries.  Pruning asks ``_drops(ring)(v)``; a key is unpacked to name an
    unknown value."""

    def __init__(self, ring, nvars: int, T: int):
        self.ring, self.T, self.powers = ring, T, [(T + 1) ** i for i in range(nvars)]
        self.drops = _drops(ring)

    def buckets(self, coeffs) -> list[dict]:
        out = [{} for _ in range(self.T + 1)]
        for key, v in coeffs.items():
            if sum(key) <= self.T:
                out[sum(key)][sum(map(mul, key, self.powers))] = v
        return out

    def key(self, p: int) -> tuple:
        return tuple(map((self.T + 1).__rmod__, map(p.__floordiv__, self.powers)))

    def series(self, buckets) -> MultiSeries:
        out = MultiSeries(self.ring, len(self.powers), self.T)
        out.coeffs = {self.key(p): v for b in buckets for p, v in b.items()}
        return out

    def prune(self, acc: dict, keys) -> None:
        drops = self.drops
        for p in keys:
            try:
                if drops(acc[p]):
                    del acc[p]
            except PrecisionError:
                drops(acc[p], self.key(p))  # raises again, naming the tuple key

    def mul(self, A, B) -> list[dict]:
        """A * B, each sum of products pruned once, at the end."""
        out = [{} for _ in A]
        for d1, a in enumerate(A):
            for d2, b in enumerate(B[:len(A) - d1]):
                acc = out[d1 + d2]
                get = acc.get
                small, big = (a, b) if len(a) <= len(b) else (b, a)
                for p1, v1 in small.items():
                    for p2, v2 in big.items():
                        cur = get(p := p1 + p2)
                        acc[p] = v1 * v2 if cur is None else cur + v1 * v2
        for acc in out:
            self.prune(acc, list(acc))
        return out


def subst_first(G: MultiSeries, P: MultiSeries, out_nvars: int, tail_positions) -> MultiSeries:
    """G with its first variable replaced by the series P (same output
    arity) and variables 2..n of G mapped to ``tail_positions``: the sum
    over k of P^k, each P^(k-1) * P, times the slice of G at x_1^k, all on
    packed keys (``_Packing``)."""
    if P.nvars != out_nvars or P.ring != G.ring:
        raise ValueError("incompatible operands")
    pk = _Packing(G.ring, out_nvars, min(G.trunc, P.trunc))
    slices: dict[int, dict] = {}
    for key, val in G.coeffs.items():
        out_key = [0] * out_nvars
        for e, pos in zip(key[1:], tail_positions):
            out_key[pos] = e
        sl, out_key = slices.setdefault(key[0], {}), tuple(out_key)
        sl[out_key] = sl[out_key] + val if out_key in sl else val  # buckets() drops degrees > T
    out = pk.buckets({})
    power, step = pk.buckets({(0,) * out_nvars: G.ring.coerce(1)}), pk.buckets(P.coeffs)
    for k in range(max(slices, default=-1) + 1):
        if k > 0:
            power = pk.mul(power, step)
            if not any(power):
                break
        if k in slices:  # out += power * slice; only the keys both have are pruned
            for acc, b in zip(out, pk.mul(power, pk.buckets(slices[k]))):
                both = acc.keys() & b.keys()
                acc.update({p: acc[p] + v if p in both else v for p, v in b.items()})
                pk.prune(acc, both)
    return pk.series(out)


def iter_partial(G, m: int) -> MultiSeries:
    """m-th iterated partial derivative, the subset sum
    (partial^m G)(x_1..x_{m+n}) =
        sum_{I in [1, m+1]} (-1)^(m+1-|I|) G(x_I, x_{m+2}, ...).

    For m = 0 this is G - G(0, x_2, ..., x_n): the monomials of G whose
    x_1 exponent is positive.  For m = 1 it is the formal-group-law partial
    derivative G(x1*x2, ...) - G(x1, ...) - G(x2, ...) + G(0, ...).  This is
    the production route; its oracles are the m-fold nested partial
    derivative and the sum with one substitution per subset (both
    cross-checked in the tests).

    One substitution gives the whole sum: it is the monomials of
    G(x_1 * ... * x_(m+1), tail) with every head exponent >= 1.  A
    monomial whose head support is S lies in G(x_I, tail) only for I
    containing S, with the same coefficient in each, so the sum counts
    it sum_{S <= I <= head} (-1)^|head - I| times: once if S is the whole
    head, else zero times.  The subset sum cancels every input value to a
    zero at some key with a smaller support, and one without digits at a
    prime to an unknown zero, so such a value raises PrecisionError naming
    its input degree or key.

    The derivative is Z-linear, so over Q the substitution runs on the
    integer numerators L*G, L the lcm of G's denominators, and each
    coefficient is divided by L at the end.
    """
    M = _as_multi(G)
    n, T = M.nvars, M.trunc
    if m == 0:
        out = MultiSeries(M.ring, n, T)
        out.coeffs = {k: v for k, v in M.coeffs.items() if k[0] > 0}
        return out
    ring = M.ring
    if isinstance(ring, ProfiniteRing):  # v - v is an unknown zero where v lacks digits
        for k, v in M.coeffs.items():
            ring.is_zero(v - v, k[0] if isinstance(G, TruncSeries) else k)
    if isinstance(ring, RationalRing):
        L = math.lcm(*(v.denominator for v in M.coeffs.values()))
        M = MultiSeries(Z, n, T, {k: v.numerator * (L // v.denominator) for k, v in M.coeffs.items()})
    out_n = n + m
    S = subst_first(M, star_sum(range(m + 1), out_n, T, M.ring), out_n, range(m + 1, out_n))
    out = MultiSeries(ring, out_n, T)
    out.coeffs = {k: v for k, v in S.coeffs.items() if 0 not in k[:m + 1]}
    if ring is not M.ring:
        out.coeffs = {k: Fraction(v, L) for k, v in out.coeffs.items()}
    return out


def is_double_symmetric(G) -> bool:
    """True iff G and its partial derivative are both symmetric."""
    M = _as_multi(G)
    if M.nvars == 1:
        return True
    if not is_symmetric(M):
        return False
    return is_symmetric(iter_partial(M, 1))


# ---------------------------------------------------------------------------
# symmetric integration (over Q, multiplicative law)


def integrate_symmetric(G) -> TruncSeries:
    """Univariate L with partial^(n-1) L = G for the n-variable G
    (multiplicative law, over Q), normalised to have no lg_0..lg_{n-1} part.

    partial^(n-1) lg_m is the sum of lg_{k_1}(x_1) ... lg_{k_n}(x_n) over the
    compositions k of m into n positive parts.  So G's coordinates in that
    product basis, read with b_map one variable at a time, must be a_{|k|}
    at every composition k, and then L = sum_m a_m lg_m.  Otherwise G was
    not double-symmetric within truncation: NotIntegrable.
    """
    M = _as_multi(G)
    if not isinstance(M.ring, RationalRing):
        raise TypeError("symmetric integration needs rational coefficients")
    n, T = M.nvars, M.trunc
    if any(0 in key for key in M.coeffs):
        raise NotIntegrable("input is not divisible by x_1 ... x_n")
    coords = {k: v for k, v in M.coeffs.items() if sum(k) <= T}
    for var in range(n):
        lines: dict[tuple, dict[int, Fraction]] = {}
        for k, v in coords.items():
            lines.setdefault(k[:var] + k[var + 1:], {})[k[var]] = v
        coords = {}
        for rest, line in lines.items():
            N = T - sum(rest)
            b = b_map(TruncSeries(Q, N, [line.get(i, 0) for i in range(N + 1)]), N)
            coords.update({rest[:var] + (i,) + rest[var:]: c for i, c in enumerate(b.values) if c})
    # a_m sits at the composition (m-n+1, 1, ..., 1); divisibility makes every
    # stored k a composition, and m has C(m-1, n-1) of them
    a = {m: coords.get((m - n + 1,) + (1,) * (n - 1), 0) for m in range(n, T + 1)}
    orbits = sum(math.comb(m - 1, n - 1) for m, c in a.items() if c)
    if len(coords) != orbits or any(v != a[sum(k)] for k, v in coords.items()):
        raise NotIntegrable("coefficients inconsistent: not double-symmetric within truncation")
    return sum((lg_series(m, T).scale(c) for m, c in a.items() if c), TruncSeries.zero(Q, T))


def aformula_check(G: TruncSeries, n: int) -> bool:
    """Verify the derivative-reduction formula
    (partial^n G)(x_1..x_{n+1}) = sum_{k>=1} (1/k!)
        partial^(n-1)((1-x)^k d^k G/dx^k)(x_1..x_n) * x_{n+1}^k
    up to G's truncation T in total degree (multiplicative law, over Q)."""
    T = G.trunc
    lhs = iter_partial(G, n)
    rhs = MultiSeries(G.ring, n + 1, T)
    dk = G
    one_minus_x = TruncSeries(G.ring, T, [1, -1][:T + 1])
    base = one_minus_x
    for k in range(1, T + 1):
        dk = TruncSeries(
            dk.ring, dk.trunc, [(i + 1) * dk.coeffs[i + 1] for i in range(dk.trunc)] + [dk.ring.zero()]
        )
        Hk = base * dk
        inner = iter_partial(Hk, n - 1)
        scale = Fraction(1, math.factorial(k))
        for key, val in inner.coeffs.items():
            out_key = key + (k,)
            if sum(out_key) <= T:
                rhs.coeffs[out_key] = rhs.coeffs.get(out_key, Fraction(0)) + val * scale
        base = base * one_minus_x
    rhs.coeffs = {k: v for k, v in rhs.coeffs.items() if v != 0}
    return lhs == rhs


def integer_coefficients(S) -> bool:
    """All coefficients of a TruncSeries or MultiSeries integral: exact
    denominators over Q, trivially true over Z; profinite residues are
    integer-consistent by CRT construction, so the profinite answer is True
    (documented finite-precision surrogate).  Its caller is in_Qnm; the Phi
    route reads divisibility on integer numerators instead."""
    if not isinstance(S.ring, RationalRing):
        return True
    vals = S.coeffs.values() if isinstance(S, MultiSeries) else S.coeffs
    return all(v.denominator == 1 for v in vals)
