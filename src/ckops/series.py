"""Univariate truncated power series over Q, Z, and profinite coefficients,
with the operator Phi, Adams and logarithm series, the composition product,
and the sequence-side b map.

A series stores exactly trunc+1 coefficients; identities hold modulo
x^(trunc+1).  Phi^n costs n truncation degrees, desuspension one, and the
result records it; operations never return silently degraded answers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, neg, sub
from typing import Iterable

from .arith import (
    PrecisionError,
    PrimeBudget,
    ProfiniteApprox,
    Struct,
    gbinom,
    gen_binomial,
    rational_from_str,
    rational_to_str,
    vp_factorial,
)


class TruncationExhausted(ArithmeticError):
    """An operation needs more truncation degrees than the series stores."""


# ---------------------------------------------------------------------------
# coefficient rings


def _trim(row: tuple) -> tuple:
    """An integer row without its trailing zeros, where its sums stop."""
    n = len(row)
    while n and not row[n - 1]:
        n -= 1
    return row[:n]


class _ExactRing:
    """Q and Z, named by ``tag``: exact coefficients, so zero is zero."""

    @staticmethod
    def is_zero(x, at=None):
        return x == 0

    def to_json(self):
        return self.tag

    def __eq__(self, other):
        return isinstance(other, type(self))

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return self.tag


class RationalRing(_ExactRing):
    tag = "Q"

    @staticmethod
    def coerce(x):
        if type(x) is Fraction:
            return x  # immutable, so shared rather than copied
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    zero = staticmethod(lambda: Fraction(0))
    one = staticmethod(lambda: Fraction(1))

    @staticmethod
    def prepare(cols):
        """The matrix half of the bilinear kernel (see ProfiniteRing.prepare):
        its rows as integer numerators over one common denominator Lc."""
        Lc = math.lcm(*(c.denominator for col in cols for c in col))
        mat = [[c.numerator * (Lc // c.denominator) for c in col] for col in cols]
        return Lc, tuple(map(_trim, zip(*mat)))

    @staticmethod
    def apply(values, prepared):
        Lc, rows = prepared
        Lv = math.lcm(*(v.denominator for v in values))
        nums = [v.numerator * (Lv // v.denominator) for v in values]
        den = Lv * Lc
        return [Fraction(sum(map(mul, nums, row)), den) for row in rows]

    @staticmethod
    def combine(values, rows):
        """Integer rows are a prepared table over the denominator 1."""
        return RationalRing.apply(values, (1, rows))

    @staticmethod
    def coeff_to_json(x):
        return rational_to_str(x)

    @staticmethod
    def coeff_from_json(s):
        return rational_from_str(s) if isinstance(s, str) else RationalRing.coerce(s)


class IntegerRing(_ExactRing):
    tag = "Z"

    @staticmethod
    def coerce(x):
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return int(x)
        raise TypeError(f"cannot coerce {x!r} into Z")

    zero = staticmethod(lambda: 0)
    one = staticmethod(lambda: 1)

    @staticmethod
    def prepare(cols):
        return tuple(map(_trim, zip(*cols)))

    @staticmethod
    def apply(values, rows):
        return [sum(map(mul, values, row)) for row in rows]

    combine = apply  # integer rows need no preparing

    @staticmethod
    def coeff_to_json(x):
        return x

    coeff_from_json = coerce  # a JSON integer; a float or string is a TypeError


class ProfiniteRing:
    def __init__(self, budget: PrimeBudget):
        self.budget = budget

    def coerce(self, x):
        y = ProfiniteApprox._embed(self.budget, x)
        if y is NotImplemented:
            raise TypeError(f"cannot coerce {x!r} into Zhat")
        return y

    def zero(self):
        return ProfiniteApprox.from_int(self.budget, 0)

    def one(self):
        return ProfiniteApprox.from_int(self.budget, 1)

    @staticmethod
    def is_zero(x, at=None):
        """Zero, nonzero, or PrecisionError naming ``at`` when unknown."""
        return x.is_zero(at)

    def combine(self, values, rows):
        """[sum_k row[k] * values[k] for row in rows], rows of plain integers:
        every integer combination of coefficients goes through this kernel
        (Q's and Z's are their ``apply`` on the integer rows).
        Precision: at each prime an output has the least precision of the
        values with a nonzero weight, the budget exponent if none has one.
        Only a zero weight skips a value, never a value that tests as zero."""
        out = [({}, {}) for _ in rows]
        live = [[j for j, w in enumerate(row) if w] for row in rows]
        for p, e in self.budget.full_prec.items():
            res = [v.residue[p] for v in values]
            prec = [v.prec[p] for v in values]
            for (r, k), row, js in zip(out, rows, live):
                k[p] = least = min(map(prec.__getitem__, js), default=e)
                r[p] = sum(map(mul, row, res)) % p**least
        return [ProfiniteApprox._trusted(self.budget, r, k) for r, k in out]

    def prepare(self, cols):
        """The matrix half of the one bilinear kernel
        apply(values, prepare(cols))[d] = sum_i values[i] * cols[i][d], both
        factors ring values: prepared once for a matrix, applied to many
        vectors.  Here, per prime, the residue rows and each row's least
        precision (Q's rows are integer numerators over one common
        denominator, Z's plain ints), each without its trailing zeros
        (``_trim``); the least precision is read over the whole row."""
        rows = list(zip(*cols))
        per_prime = []
        for p, e in self.budget.full_prec.items():
            residues = [_trim(tuple([c.residue[p] for c in row])) for row in rows]
            least = [min([c.prec[p] for c in row], default=e) for row in rows]
            per_prime.append((p, e, tuple(zip(residues, least))))
        return len(rows), tuple(per_prime)

    def apply(self, values, prepared):
        """The vector half: at each prime an output has the least precision
        of every value and every matrix entry in its sum, the budget
        exponent if there are none.  No term is skipped."""
        n, primes = prepared
        out = [({}, {}) for _ in range(n)]
        for p, e, rows in primes:
            res = [v.residue[p] for v in values]
            low = min((v.prec[p] for v in values), default=e)
            for (r, k), (row, row_prec) in zip(out, rows):
                k[p] = least = min(low, row_prec)
                r[p] = sum(map(mul, res, row)) % p**least
        return [ProfiniteApprox._trusted(self.budget, r, k) for r, k in out]

    @staticmethod
    def coeff_to_json(x):
        return x.to_json()

    def coeff_from_json(self, s):
        return ProfiniteApprox.from_json(self.budget, s)

    def to_json(self):
        return {"profinite": self.budget.to_json()}

    def __eq__(self, other):
        return isinstance(other, ProfiniteRing) and other.budget == self.budget

    def __hash__(self):
        return hash(("profinite", self.budget))

    def __repr__(self):
        return f"Zhat{list(self.budget.primes)}"


Q = RationalRing()
Z = IntegerRing()


def exact_int(c, degree: int) -> int:
    """An exact coefficient as an int (``Z.coerce``): a non-integer raises
    ValueError naming its degree instead of being truncated."""
    try:
        return Z.coerce(c)
    except TypeError:
        raise ValueError(f"coefficient {degree} = {c} is not an integer") from None


def ring_from_json(data) -> RationalRing | IntegerRing | ProfiniteRing:
    if data == "Q":
        return Q
    if data == "Z":
        return Z
    if isinstance(data, dict) and "profinite" in data:
        return ProfiniteRing(PrimeBudget.from_json(data["profinite"]))
    raise ValueError(f"unknown ring tag {data!r}")


# ---------------------------------------------------------------------------
# truncated series


class TruncSeries:
    __slots__ = ("ring", "trunc", "coeffs")

    def __init__(self, ring, trunc: int, coeffs: Iterable):
        if trunc < 0:
            raise ValueError("truncation must be >= 0")
        self.ring = ring
        self.trunc = trunc
        cs = [ring.coerce(c) for c in coeffs]
        if len(cs) > trunc + 1:
            raise ValueError(f"{len(cs)} coefficients for truncation {trunc}")
        while len(cs) < trunc + 1:
            cs.append(ring.zero())
        self.coeffs = tuple(cs)

    @classmethod
    def _trusted(cls, ring, trunc: int, coeffs) -> "TruncSeries":
        """A series whose trunc+1 coefficients are values of ``ring`` by
        construction (results of ring arithmetic), built without coercion
        or padding."""
        s = object.__new__(cls)
        s.ring = ring
        s.trunc = trunc
        s.coeffs = tuple(coeffs)
        return s

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ring, T: int) -> "TruncSeries":
        return cls(ring, T, [])

    @classmethod
    def one(cls, ring, T: int) -> "TruncSeries":
        return cls(ring, T, [ring.one()])

    @classmethod
    def monomial(cls, ring, T: int, k: int, c=1) -> "TruncSeries":
        if not 0 <= k <= T:
            raise ValueError("monomial degree outside truncation")
        coeffs = [ring.zero()] * (T + 1)
        coeffs[k] = ring.coerce(c)
        return cls(ring, T, coeffs)

    # -- basics ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if self.ring != other.ring or self.trunc != other.trunc:
            return False
        return (self - other).is_zero()

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.trunc > 5 else ""
        return f"TruncSeries({self.ring!r}; T={self.trunc}; [{head}{tail}])"

    def is_zero(self) -> bool:
        """Every coefficient zero, by the rule of ``all_zero``: an unknown
        coefficient's PrecisionError names its degree and the prime."""
        return all_zero(self.ring, enumerate(self.coeffs))

    def _align(self, other) -> int:
        if not isinstance(other, TruncSeries):
            raise TypeError("expected a TruncSeries")
        if self.ring != other.ring:
            raise ValueError(f"mixed rings {self.ring!r} and {other.ring!r}")
        return min(self.trunc, other.trunc)

    def __add__(self, other):
        T = self._align(other)
        return TruncSeries._trusted(self.ring, T, map(add, self.coeffs, other.coeffs))

    def __sub__(self, other):
        T = self._align(other)
        return TruncSeries._trusted(self.ring, T, map(sub, self.coeffs, other.coeffs))

    def __neg__(self):
        return TruncSeries._trusted(self.ring, self.trunc, map(neg, self.coeffs))

    def scale(self, c) -> "TruncSeries":
        c = self.ring.coerce(c)
        return TruncSeries._trusted(self.ring, self.trunc, [c * a for a in self.coeffs])

    def __mul__(self, other):
        T = self._align(other)
        out = [self.ring.zero() for _ in range(T + 1)]
        for i, a in enumerate(self.coeffs[: T + 1]):
            for j in range(T + 1 - i):
                b = other.coeffs[j]
                out[i + j] = out[i + j] + a * b
        return TruncSeries._trusted(self.ring, T, out)

    def truncate(self, T: int) -> "TruncSeries":
        if T > self.trunc:
            raise TruncationExhausted(f"cannot extend T={self.trunc} to {T}")
        if T < 0:
            raise ValueError("truncation must be >= 0")
        return TruncSeries._trusted(self.ring, T, self.coeffs[: T + 1])

    def substitute(self, u: "TruncSeries") -> "TruncSeries":
        """Classical substitution self(u(x)) for u with zero constant term.
        A test oracle: no code in the package calls it."""
        if not self.ring.is_zero(u.coeffs[0], 0):
            raise ValueError("substitution needs a series with zero constant term")
        T = min(self.trunc, u.trunc)
        res = TruncSeries(self.ring, T, [self.coeffs[T]])
        for k in range(T - 1, -1, -1):
            res = res * u
            res = TruncSeries(
                self.ring, T, [self.coeffs[k] + res.coeffs[0]] + list(res.coeffs[1:])
            )
        return res

    def map_coeffs(self, fn, ring=None) -> "TruncSeries":
        return TruncSeries(ring or self.ring, self.trunc, [fn(c) for c in self.coeffs])

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "trunc": self.trunc,
            "coeffs": [self.ring.coeff_to_json(c) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data) -> "TruncSeries":
        if not isinstance(data, dict):
            raise ValueError(f"a series is a JSON object, not {data!r}")
        ring = ring_from_json(data["ring"])
        if not isinstance(data["coeffs"], list):
            raise ValueError(f"coeffs {data['coeffs']!r} is not a list")
        # JSON true/false load as bool, an int subclass: rejected here, not in Z.coerce
        for i, c in enumerate(data["coeffs"]):
            if isinstance(c, bool):
                raise ValueError(f"coefficient {i} is the boolean {c}, not a number")
            if isinstance(ring, ProfiniteRing) and not isinstance(c, dict):
                raise ValueError(f"coefficient {i} = {c!r} is not a JSON object")
        coeffs = [ring.coeff_from_json(c) for c in data["coeffs"]]
        if type(data["trunc"]) is not int:
            raise ValueError(f"truncation {data['trunc']!r} is not an integer")
        return cls(ring, data["trunc"], coeffs)


class SeqWindow(Struct):
    """Contiguous window of a sequence; start may be negative."""

    __slots__ = ("start", "values")

    def __init__(self, start: int, values):
        self.start = start
        self.values = tuple(values)
        if len(self.values) < 1:
            raise ValueError("window must hold at least one value")

    def __hash__(self):
        return hash((self.start, self.values))

    @property
    def stop(self) -> int:
        return self.start + len(self.values)

    def __getitem__(self, i: int):
        if not self.start <= i < self.stop:
            raise IndexError(f"index {i} outside window [{self.start}, {self.stop})")
        return self.values[i - self.start]


# ---------------------------------------------------------------------------
# operations


def valuation(G: TruncSeries) -> int | None:
    """Smallest degree with a nonzero coefficient; None means "beyond
    truncation" (v = infinity as far as this window can tell).

    A profinite coefficient with zero residues but no digits at some budget
    prime is unknown, not zero: ``ring.is_zero`` raises PrecisionError
    naming its degree and the prime."""
    for i, c in enumerate(G.coeffs):
        if not G.ring.is_zero(c, i):
            return i
    return None


def all_zero(ring, labelled) -> bool:
    """Are the values of the (label, value) pairs all zero?  A known
    nonzero value anywhere decides False; otherwise the first unknown
    value's PrecisionError (``ring.is_zero``, naming its label) is raised."""
    unknown = None
    for at, c in labelled:
        try:
            if not ring.is_zero(c, at):
                return False
        except PrecisionError as e:
            unknown = unknown or e
    if unknown:
        raise unknown
    return True


@lru_cache(maxsize=128)
def _phi_band(n: int, T: int) -> tuple[tuple[int, ...], ...]:
    """rows[k][m] = [x^k] Phi^n(x^m) for k <= T-n, m <= T, zero outside
    k <= m <= k+n: n steps [x^k] Phi(H) = k h_k - (k+1) h_(k+1) applied to
    the identity rows.  The bound keeps a long session from growing."""
    rows = [[int(k == m) for m in range(T + 1)] for k in range(T + 1)]
    for s in range(1, n + 1):
        rows = [[k * a - (k + 1) * b for a, b in zip(rows[k], rows[k + 1])]
                for k in range(T + 1 - s)]
    return tuple(map(tuple, rows))


def phi(G: TruncSeries, n: int = 1) -> TruncSeries:
    """Phi^n(G), Phi = (x-1) d/dx, truncated n degrees lower.  Phi is
    diagonal in Adams coordinates, Phi (1-x)^j = j (1-x)^j, so Phi^n at
    truncation T is one integer band, ``_phi_band(n, T)``, applied by one
    ring.combine: [x^k] Phi^n(G) reads a_k..a_(k+n), and a profinite one has
    ring.combine's precision, so a_0 (band weight 0) never limits it."""
    if n < 0:
        raise ValueError("phi power must be >= 0")
    if G.trunc < n:
        raise TruncationExhausted(f"phi^{n} needs truncation >= {n}")
    band = _phi_band(n, G.trunc)
    return TruncSeries._trusted(G.ring, G.trunc - n, G.ring.combine(G.coeffs, band))


def desuspend(G: TruncSeries, n: int) -> TruncSeries:
    """Series form of the desuspension from level n: Phi for n <= 1,
    Phi with the constant term projected away for n > 1."""
    H = phi(G)
    if n <= 1:
        return H
    return TruncSeries(H.ring, H.trunc, [H.ring.zero()] + list(H.coeffs[1:]))


def adams_series(r, T: int) -> TruncSeries:
    """(1-x)^r truncated at T; r may be an integer or a ProfiniteApprox."""
    if isinstance(r, int):
        return TruncSeries(Z, T, [(-1) ** k * gbinom(r, k) for k in range(T + 1)])
    if isinstance(r, ProfiniteApprox):
        ring = ProfiniteRing(r.budget)
        coeffs = []
        for k in range(T + 1):
            res, prec = {}, {}
            for p in r.budget.primes:
                e = r.prec[p] - vp_factorial(k, p)
                if e < 1:
                    raise PrecisionError(
                        f"A_r coefficient {k} needs r mod {p}^{vp_factorial(k, p) + 1}"
                    )
                res[p] = (-1) ** k * gen_binomial(r, k, p, e) % p**e
                prec[p] = e
            coeffs.append(ProfiniteApprox._trusted(r.budget, res, prec))
        return TruncSeries._trusted(ring, T, coeffs)
    raise TypeError("Adams exponent must be an integer or a ProfiniteApprox")


@lru_cache(maxsize=128)
def _lg_coeffs(r: int, T: int) -> tuple[Fraction, ...]:
    """[x^d] lg_r = (-1)^r c(d, r) / d! for d <= T, with c(d, j) the unsigned
    Stirling numbers of the first kind from the row recurrence
    c(d+1, j) = d c(d, j) + c(d, j-1) (stirling2's first-kind mirror):
    O(T r) integer operations and one Fraction per coefficient."""
    sign = (-1) ** r
    row = [1] + [0] * r  # c(0, j)
    out = [Fraction(row[r])]
    fact = 1
    for d in range(T):
        for j in range(min(d + 1, r), 0, -1):
            row[j] = d * row[j] + row[j - 1]
        row[0] = 0
        fact *= d + 1
        out.append(Fraction(sign * row[r], fact))
    return tuple(out)


def lg_series(r: int, T: int) -> TruncSeries:
    """lg_r = (1/r!) log(1-x)^r over Q; lg_0 = 1.  Closed form:
    [x^d] lg_r = (-1)^r c(d, r) / d!, c the unsigned Stirling numbers of the
    first kind (b_map's inverse: b(lg_r) is the r-th unit vector)."""
    if r < 0:
        raise ValueError("lg index must be >= 0")
    return TruncSeries(Q, T, list(_lg_coeffs(r, T)))


@lru_cache(maxsize=128)
def chain_weights(r: int, T: int) -> tuple:
    """w[m][i] = sum over chains i = i_1 < ... < i_r = m of 1/(i_1...i_r)."""
    w = [[Fraction(0)] * (T + 1) for _ in range(T + 1)]
    for m in range(1, T + 1):
        w[m][m] = Fraction(1, m)
    for _depth in range(r - 1):
        new = [[Fraction(0)] * (T + 1) for _ in range(T + 1)]
        for m in range(1, T + 1):
            # new[m][i] = (1/i) * sum_{i<j<=m} w[m][j]
            acc = Fraction(0)
            for i in range(m - 1, 0, -1):
                acc += w[m][i + 1]
                new[m][i] = acc / i
        w = new
    return tuple(tuple(row) for row in w)


def chain_sum(ring, vals, row):
    """sum_i vals[i-1] row[i] for a row of chain_weights: ring.combine of
    the integer row row*den, den the lcm of its denominators, then one
    division by den, the only place a profinite value loses precision
    (PrecisionError when the claimed divisibility fails: non-integrality)."""
    den = math.lcm(*(w.denominator for w in row))
    [acc] = ring.combine(vals, [[int(w * den) for w in row[1:]]])
    return acc / den if ring == Q else acc.divide_exact(den)


def weighted_lg(a, r: int, T: int) -> TruncSeries:
    """Sequence-weighted logarithm series
    (-1)^r sum_{0<i_1<...<i_r<=T} a_{i_1} x^{i_r} / (i_1 ... i_r).

    Integer weights give an exact rational series, profinite weights a
    profinite series (the ring is read from a's first entry, Q for an
    empty a); each coefficient is one chain_sum.
    """
    if r < 1:
        raise ValueError("weight depth r must be >= 1")
    a = list(a)
    vals = a[:T]
    if len(vals) < T:
        raise ValueError("sequence too short for the requested window")
    w = chain_weights(r, T)
    sign = (-1) ** r
    ring = ProfiniteRing(a[0].budget) if a and isinstance(a[0], ProfiniteApprox) else Q
    out = [ring.zero()] + [chain_sum(ring, vals, w[m]) * sign for m in range(1, T + 1)]
    return TruncSeries(ring, T, out)


def adams_coordinates(H: TruncSeries) -> list:
    """b_0..b_T with H = sum_k b_k (1-x)^k as polynomials of degree T:
    b_k = (-1)^k sum_{m>=k} C(m,k) a_m.  One ring.combine, so any ring
    works and a profinite b_k has the least precision of a_k..a_T."""
    T = H.trunc
    rows = [[(-1) ** k * math.comb(m, k) for m in range(T + 1)] for k in range(T + 1)]
    return H.ring.combine(H.coeffs, rows)


class Composer:
    """Composition against a fixed left factor H.

    H o H' = sum_i a_i U_i over the coefficients a_i of H', where
    U_i = sum_j (-1)^j C(i,j) H([j](x)), [j](x) = 1 - (1-x)^j, is (-1)^i
    times the diagonal (partial^{i-1} H)(x,...,x).  In Adams coordinates
    H = sum_k b_k (1-x)^k (adams_coordinates), substituting [j](x) maps k
    to jk and the sum over j closes to U_0 = H(0), U_i = sum_{k>=1} b_k
    [k](x)^i: one ring.combine of the b_k with the integer tensor
    [x^d] [k](x)^i.  [k](x)^i has valuation i, so the table is
    lower-triangular (a Jabotinsky matrix): the combine covers only the
    T(T+1)/2 entries with d >= i, and U_i starts with i copies of one
    ring.zero().  Building the tensor by repeated products is Theta(T^4)
    integer multiply-adds (9,996 at T = 16), the combine O(T^3); O(T^2)
    ring values, no substitution, division-free, hence valid over Z and
    profinite coefficients.  Precision is ring.combine's: [x^d] U_i has
    the least precision of the b_k whose integer multiplier is nonzero.

    The table is prepared for the ring's bilinear kernel once, here
    (ring.prepare: Q's integer numerators over one denominator, profinite
    residue rows with their least precisions; every row stops at its last
    nonzero entry, so row d reads a_0..a_d at most), and compose(H') is one
    ring.apply of H'.coeffs to it, coerced into H's ring only when H' is
    over another ring.  A right factor of lower truncation T' is not
    padded: the first T'+1 outputs are kept.  Precision rule: a profinite
    [x^d] of the result has, at each prime, the least precision of every
    a_i and every [x^d] U_i.
    """

    def __init__(self, H: TruncSeries):
        self.H = H
        self.ring = H.ring
        T = H.trunc
        # tensor[i - 1][d - i][k] = [x^d] [k](x)^i for 1 <= i <= d <= T
        tensor = [[[0] * (T + 1) for _ in range(i, T + 1)] for i in range(1, T + 1)]
        for k in range(1, T + 1):
            arg = [0] + [(-1) ** (d + 1) * math.comb(k, d) for d in range(1, T + 1)]
            power = [1] + [0] * T
            for i in range(1, T + 1):
                # power = [k](x)^i has valuation i; [k](x) has degree k
                power = [sum(power[e] * arg[d - e] for e in range(max(i - 1, d - k), d))
                         for d in range(T + 1)]
                for d in range(i, T + 1):
                    tensor[i - 1][d - i][k] = power[d]
        entries = iter(self.ring.combine(adams_coordinates(H), [row for rows in tensor for row in rows]))
        zero = self.ring.zero()
        self.U = [TruncSeries._trusted(self.ring, T, [H.coeffs[0]] + [zero] * T)] + [
            TruncSeries._trusted(self.ring, T, [zero] * i + [next(entries) for _ in range(i, T + 1)])
            for i in range(1, T + 1)]
        self._table = self.ring.prepare([U.coeffs for U in self.U])

    def compose(self, H2: TruncSeries) -> TruncSeries:
        T = min(self.H.trunc, H2.trunc)
        a = H2.coeffs[:T + 1]
        if H2.ring != self.ring:
            a = [self.ring.coerce(c) for c in a]
        return TruncSeries._trusted(self.ring, T, self.ring.apply(a, self._table)[:T + 1])


def compose_op(H: TruncSeries, H2: TruncSeries) -> TruncSeries:
    """Composition product corresponding to composition of operations."""
    T = min(H.trunc, H2.trunc)
    return Composer(H.truncate(T)).compose(H2.truncate(T))


@lru_cache(maxsize=128)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), from the row recurrence
    S(m, j) = j S(m-1, j) + S(m-1, j-1) iterated up to row n."""
    if not 0 <= k <= n:
        return 0
    row = [1] + [0] * k  # S(0, j)
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


@lru_cache(maxsize=128)
def _stirling_band(N: int, T: int) -> tuple[tuple[int, ...], ...]:
    """rows[n][k] = (-1)^k k! S(n, k) for n <= N, k <= min(n, T): b_map's
    integer band.  The bound keeps a long session from growing."""
    return tuple(tuple((-1) ** k * math.factorial(k) * stirling2(n, k) for k in range(min(n, T) + 1))
                 for n in range(N + 1))


def b_map(G: TruncSeries, N: int) -> SeqWindow:
    """Sequence image of G under the lg-basis isomorphism, computed by the
    division-free Stirling transform b(G)_n = sum_k (-1)^k k! S(n,k) c_k.

    The production route, valid over every coefficient ring.  Its oracle
    is lg_decompose, which it must agree with over Q (cross-checked in the
    tests).  One ring.combine of the cached band ``_stirling_band(N, T)``,
    whose precision rule applies.  Entries beyond the truncation describe
    the truncated polynomial.
    """
    return SeqWindow(0, G.ring.combine(G.coeffs, _stirling_band(N, G.trunc)))


def lg_decompose(G: TruncSeries) -> SeqWindow:
    """Coefficients a_0..a_T with G = sum a_i lg_i (mod x^(T+1)), by back
    substitution against the triangular lg basis.  Exact rationals only.

    The oracle for the production route b_map (cross-checked in the tests).
    """
    if not isinstance(G.ring, RationalRing):
        raise TypeError("lg_decompose needs exact rational coefficients")
    T = G.trunc
    basis = [_lg_coeffs(r, T) for r in range(T + 1)]
    rem = list(G.coeffs)
    out = []
    for d in range(T + 1):
        lead = basis[d][d]  # (-1)^d / d!
        a = rem[d] / lead
        out.append(a)
        if a != 0:
            for j in range(d, T + 1):
                rem[j] -= a * basis[d][j]
    return SeqWindow(0, out)

