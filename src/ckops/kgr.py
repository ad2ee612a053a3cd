"""Graded K-theory stable operations as two-sided integer sequences: the
numerical-polynomial pairing, shift and reflection, unit-power interval
lattices, the canonical basis windows f^(n), and the window decomposition.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import repeat, zip_longest

from .arith import PrecisionError, PrimeBudget, Struct, crt_lift, gbinom
from .linalg import ModMatrix, howell_form, in_howell_span
from .series import Q, SeqWindow, TruncSeries, _stirling_band, exact_int
from .stable import _stable_lattice, construct_Fn, dn_tilde


@lru_cache(maxsize=128)
def _fn_cached(n: int, T: int, budget: PrimeBudget):
    return construct_Fn(n, T, budget)


class NumericalPoly(Struct):
    """Integer-valued polynomial in the basis e_n = (-1)^n C(s, n); the
    integrality of the basis coefficients *is* the numerical property, so a
    non-integer coefficient raises ValueError (``exact_int``)."""

    __slots__ = ("e_coeffs",)

    def __init__(self, e_coeffs):
        self.e_coeffs = tuple(exact_int(c, n) for n, c in enumerate(e_coeffs))

    def __hash__(self):
        return hash(self.e_coeffs)

    @property
    def degree(self) -> int:
        d = -1
        for i, c in enumerate(self.e_coeffs):
            if c:
                d = i
        return d

    def __call__(self, m: int) -> int:
        return sum(
            c * (-1) ** n * gbinom(m, n) for n, c in enumerate(self.e_coeffs)
        )


def to_e_basis(mono_coeffs) -> NumericalPoly | None:
    """e-basis coefficients of a rational polynomial (monomial coefficients
    in s), through s^j = sum_n (-1)^n n! S(j, n) e_n: one ``Q.combine`` of
    b_map's transposed Stirling band.  None when some coefficient is not an
    integer, i.e. the polynomial is not numerical.  The inputs must be
    exact (``Q.coerce``): a float raises TypeError."""
    cs = [Q.coerce(c) for c in mono_coeffs]
    d = len(cs) - 1
    es = Q.combine(cs, list(zip_longest(*_stirling_band(d, d), fillvalue=0)))
    if any(e.denominator != 1 for e in es):
        return None
    return NumericalPoly(es)


def pair(f: NumericalPoly, G: TruncSeries):
    """<f, G> = sum_n f_n c_n under <e_n, x^m> = delta_{n,m}: one
    ``ring.combine`` row, so pairing with s^n is b_map's entry n."""
    if f.degree > G.trunc:
        raise ValueError(
            f"polynomial support {f.degree} exceeds truncation {G.trunc}"
        )
    return G.ring.combine(G.coeffs, [f.e_coeffs[: G.trunc + 1]])[0]


def shift(a: SeqWindow, k: int) -> SeqWindow:
    """Left shift by k: (shift(a, k))_i = a_(i+k)."""
    return SeqWindow(a.start - k, a.values)


def reflect(a: SeqWindow) -> SeqWindow:
    """(reflect a)_i = a_(-i)."""
    return SeqWindow(-(a.stop - 1), tuple(reversed(a.values)))


def interval_in_N(v, budget: PrimeBudget) -> bool:
    """Membership of v in the lattice N of the unit power rows (1, r, ...,
    r^(n-1)), n = len(v), mod q = p^e per budget prime p.  As b(A_r)_j = r^j
    and b is Z-linear, entry j < n reading degrees < n, N = b(U) for
    U = ``stable._stable_lattice(n, p, e)``: one Howell form of U's rows
    under b's Stirling band decides.  An entry that is not an integer
    raises ValueError naming it (``exact_int``)."""
    v = [exact_int(c, i) for i, c in enumerate(v)]
    n = len(v)
    band = _stirling_band(n - 1, n - 1)
    for p in budget.primes:
        U = _stable_lattice(n, p, budget.exponent(p))
        rows = [[sum(map(operator.mul, b, row)) for b in band] for row in U.entries]
        if not in_howell_span(howell_form(ModMatrix(U.modulus, rows, cols=n)), v):
            return False
    return True


# ---------------------------------------------------------------------------
# the canonical two-sided windows f^(n)


def fseq(
    n: int,
    start: int,
    stop: int,
    T: int,
    budget: PrimeBudget,
) -> SeqWindow:
    """Window [start, stop) of the canonical basis sequence f^(n), the
    two-sided b-image of (-1)^n F_n.

    F_n is by construction a combination of Adams series at unit nodes,
    and b(A_r)_i = r^i extends to negative i through the modular inverse
    of the node; each value is the symmetric CRT lift of its per-prime
    residues, exact at full budget precision (f^(0) = (1,1,1,...) and
    f^(1) = (0,2,0,2,...) come out of the same formula).
    """
    if stop <= start:
        raise ValueError("empty window")
    if n == 0:
        return SeqWindow(start, [1] * (stop - start))
    if n == 1:
        return SeqWindow(start, [0 if i % 2 == 0 else 2 for i in range(start, stop)])
    if T < stop + 1:
        raise PrecisionError(f"fseq needs truncation >= {stop + 1}")
    F = _fn_cached(n, T, budget)
    sign = (-1) ** n
    # per prime: modulus, weight residues, node residues and their inverses
    per_p = []
    for p in budget.primes:
        e = budget.exponent(p)
        q = p**e
        cofs = [cof.residue_mod(p, e) for cof, _ in F.combination]
        bases = [node % q for _, node in F.combination]
        inverses = [pow(b, -1, q) for b in bases] if start < 0 else None
        per_p.append((q, cofs, bases, inverses))
    vals = []
    for i in range(start, stop):
        pairs = []
        for q, cofs, bases, inverses in per_p:
            powers = map(pow, bases if i >= 0 else inverses, repeat(abs(i)), repeat(q))
            acc = sum(map(operator.mul, cofs, powers))
            pairs.append((sign * acc % q, q))
        x, M = crt_lift(pairs)
        vals.append(x - M if 2 * x > M else x)
    return SeqWindow(start, vals)


def _pivot(n: int) -> int:
    """Where the n-th basis sequence reads n! d_n: -i for n = 2i, i+1 for
    n = 2i+1."""
    return n // 2 + 1 if n % 2 else -(n // 2)


def _basis_window(n: int, lo: int, hi: int, T: int, budget: PrimeBudget) -> SeqWindow:
    """Window [lo, hi] of the n-th basis sequence: shift^(-i) reflect f^(2i)
    for n = 2i, shift^i f^(2i+1) for n = 2i+1.  Its entry at the pivot
    (``_pivot``) is n! d_n; a window holding the pivot checks that, and a
    budget whose modulus cannot hold n! d_n raises PrecisionError naming n.
    A window beside the pivot checks the modulus instead: the symmetric
    lift of n! d_n needs 2 n! d_n <= modulus (f^(0) and f^(1) are exact)."""
    i, pivot = n // 2, _pivot(n)
    if n % 2:
        f = shift(fseq(n, lo + i, hi + i + 1, T, budget), i)
    else:
        f = shift(reflect(fseq(n, i - hi, i - lo + 1, T, budget)), -i)
    if lo <= pivot <= hi:
        if f[pivot] != dn_tilde(n):
            raise PrecisionError(f"basis sequence {n} reads {f[pivot]} at its pivot {pivot}, not {n}! "
                                 f"d_{n} = {dn_tilde(n)}: budget {budget.to_json()} is too small")
    elif n > 1 and 2 * dn_tilde(n) > budget.modulus:
        raise PrecisionError(f"basis sequence {n} needs a modulus of at least 2 * {n}! d_{n} = "
                             f"{2 * dn_tilde(n)}: budget {budget.to_json()} is too small")
    return f


def decompose_TZ(a: SeqWindow, m: int, T: int, budget: PrimeBudget) -> list[int]:
    """Coordinates b_0..b_(2m+1) of an integer window against the basis
    ``_basis_window``: basis sequence n has its entry n! d_n at its pivot
    (``_pivot``) and zeros at the pivots before it, so peel the pivots of
    [-m, m+1] in turn, then verify reassembly.

    A nonintegral quotient or a nonzero residual raises: the window is not
    in the lattice the basis spans.  A budget that cannot hold some n! d_n
    raises PrecisionError (``_basis_window``).
    """
    if a.start > -m or a.stop < m + 2:
        raise ValueError(f"window must cover [{-m}, {m + 1}]")
    lo, hi = -m, m + 1
    residual = [a[j] for j in range(lo, hi + 1)]
    out = []
    for n in range(2 * m + 2):
        pivot = _pivot(n)
        f = _basis_window(n, lo, hi, T, budget)
        d, x = dn_tilde(n), residual[pivot - lo]
        if x % d:
            raise ValueError(f"entry at {pivot} = {x} not divisible by {d}")
        b = x // d
        residual = [x - b * y for x, y in zip(residual, f.values)]
        out.append(b)
    bad = [j for j, x in enumerate(residual, lo) if x]
    if bad:
        raise ValueError(f"nonzero residual at indices {bad}: not in the span")
    return out


def assemble_TZ(bs: list[int], lo: int, hi: int, T: int, budget: PrimeBudget) -> SeqWindow:
    """Window [lo, hi] of sum_n b_n times basis sequence n (``_basis_window``)."""
    vals = [0] * (hi - lo + 1)
    for n, b in enumerate(bs):
        if b:
            f = _basis_window(n, lo, hi, T, budget)
            vals = [x + b * y for x, y in zip(vals, f.values)]
    return SeqWindow(lo, vals)
