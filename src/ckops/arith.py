"""Exact integer, rational, p-adic valuation, CRT, and finite-precision
profinite arithmetic.

Profinite integers are approximated over a declared finite set of primes
(a PrimeBudget); every element carries the precision it is actually known
to, and operations that consume precision (division by a non-unit) record
the loss in the result.  All values are immutable after construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul, sub
from typing import Iterable, Mapping


class InfiniteValuation(ArithmeticError):
    """Raised when the p-adic valuation of 0 is requested."""


class PrecisionError(ArithmeticError):
    """A computation needs more per-prime precision than is stored."""


class IncompatibleCongruences(ValueError):
    """A congruence system has no solution; the message names the clash."""


def vp_split(n: int, p: int) -> tuple[int, int]:
    """(k, n // p**k) for the largest k with p**k dividing n: the valuation
    and the part of n prime to p, sign kept.  Raises InfiniteValuation for
    n = 0."""
    if n == 0:
        raise InfiniteValuation(f"v_{p}(0) is infinite")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k, n


def vp(n: int, p: int) -> int:
    """Largest k with p**k dividing n (``vp_split``'s valuation)."""
    return vp_split(n, p)[0]


def vp_fraction(q: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if q == 0:
        raise InfiniteValuation(f"v_{p}(0) is infinite")
    return vp(q.numerator, p) - vp(q.denominator, p)


def vp_factorial(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def largest_prime_power(p: int, m: int, cap: int | None = None) -> tuple[int, int]:
    """(k, p**k) for the largest k with p**k <= m, k at most ``cap``;
    p < 2 has no largest power and raises ValueError."""
    if p < 2:
        raise ValueError(f"largest_prime_power needs p >= 2, got {p}")
    k, q = 0, 1
    while q * p <= m and (cap is None or k < cap):
        q *= p
        k += 1
    return k, q


def gbinom(r: int, k: int) -> int:
    """Generalized binomial coefficient C(r, k) for any integer r, k >= 0.

    C(r, k) = r(r-1)...(r-k+1)/k! is an integer for every integer r,
    e.g. C(-1, k) = (-1)**k.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if r >= 0:
        return math.comb(r, k)
    # C(r, k) = (-1)^k C(k - r - 1, k) for r < 0
    return (-1) ** k * math.comb(k - r - 1, k)


def modinv(a: int, m: int) -> int:
    """Inverse of a modulo m (a must be a unit mod m)."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} is not invertible modulo {m}") from None


def crt_lift(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Solve x = r_i (mod m_i) for pairwise coprime moduli.

    Returns (x, M) with M the product of the moduli and 0 <= x < M.
    Non-coprime moduli raise IncompatibleCongruences naming the pair.
    """
    pairs = list(pairs)
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            g = math.gcd(pairs[i][1], pairs[j][1])
            if g != 1:
                raise IncompatibleCongruences(
                    f"moduli {pairs[i][1]} and {pairs[j][1]} share factor {g}"
                )
    x, m = 0, 1
    for r, mod in pairs:
        if mod < 1:
            raise ValueError("moduli must be >= 1")
        # combine x mod m with r mod mod
        if mod == 1:
            continue
        t = ((r - x) * modinv(m, mod)) % mod
        x = x + m * t
        m = m * mod
    return x % m if m > 1 else 0, m


def rational_mod(q: Fraction | int, m: int) -> int:
    """Residue of a rational with denominator prime to m, in [0, m)."""
    q = Fraction(q)
    if math.gcd(q.denominator, m) != 1:
        raise ValueError(f"denominator {q.denominator} not invertible mod {m}")
    return (q.numerator * modinv(q.denominator, m)) % m


def rational_reconstruct(r: int, m: int) -> Fraction | None:
    """Small rational a/b with a/b = r (mod m), |a|, b <= sqrt(m/2).

    Standard Wang reconstruction by the extended Euclidean algorithm.
    Returns None when no such rational exists.
    """
    bound = math.isqrt(m // 2)
    if bound == 0:
        return None
    v0, v1 = (m, 0), (r % m, 1)
    while v1[0] > bound:
        q = v0[0] // v1[0]
        v0, v1 = v1, (v0[0] - q * v1[0], v0[1] - q * v1[1])
    a, b = v1[0], v1[1]
    if b == 0 or abs(b) > bound or math.gcd(a, b) != 1:
        return None
    if math.gcd(b, m) != 1:
        return None
    frac = Fraction(a, b)
    if (frac.numerator * modinv(frac.denominator, m) - r) % m != 0:
        return None
    return frac


class Struct:
    """Base of the plain record classes: the ``__slots__`` are the fields, set
    in order from the positional arguments, and equal class and fields make
    equal values.  Unhashable unless a subclass defines ``__hash__``."""

    __slots__ = ()
    __hash__ = None

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            setattr(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._fields() == other._fields() if same else NotImplemented

    def __repr__(self):
        return type(self).__name__ + repr(self._fields())


class PrimeBudget(Struct):
    """Finite approximation window for Zhat: distinct primes with exponents.

    ``moduli`` maps each prime p to p**e and ``full_prec`` to e; both are
    computed once here and are read-only, like the budget itself."""

    __slots__ = ("primes", "exponents", "moduli", "full_prec")

    def __init__(self, primes: tuple[int, ...], exponents: tuple[int, ...]):
        if not primes:  # else a value with no digits at all would test as zero
            raise ValueError("budget names no prime")
        if len(set(primes)) != len(primes):
            raise ValueError("budget primes must be distinct")
        if len(primes) != len(exponents):
            raise ValueError("primes and exponents must align")
        for p, e in zip(primes, exponents):
            if type(p) is not int:
                raise ValueError(f"budget prime {p!r} is not an integer")
            if not is_prime(p):
                raise ValueError(f"budget prime {p} is not a prime")
            if type(e) is not int:
                raise ValueError(f"budget exponent {e!r} at p={p} is not an integer")
            if e < 1:
                raise ValueError("budget exponents must be >= 1")
        self.primes = primes
        self.exponents = exponents
        self.moduli = {p: p**e for p, e in zip(primes, exponents)}
        self.full_prec = dict(zip(primes, exponents))

    def _fields(self) -> tuple:
        return self.primes, self.exponents

    def __eq__(self, other):  # hot: ProfiniteApprox and ProfiniteRing compare budgets
        if self is other:
            return True
        if other.__class__ is not PrimeBudget:
            return NotImplemented
        return self.primes == other.primes and self.exponents == other.exponents

    def __hash__(self):  # a key of kgr._fn_cached, so a budget is never mutated
        return hash((self.primes, self.exponents))

    @classmethod
    def uniform(cls, primes: Iterable[int], prec: int) -> "PrimeBudget":
        ps = tuple(sorted(primes))
        return cls(ps, tuple(prec for _ in ps))

    def exponent(self, p: int) -> int:
        return self.full_prec[p]

    @property
    def modulus(self) -> int:
        return math.prod(self.moduli.values())

    def to_json(self):
        return [[p, e] for p, e in zip(self.primes, self.exponents)]

    @classmethod
    def from_json(cls, data) -> "PrimeBudget":
        data = _int_rows(data, "budget", ("prime", "exponent"))
        return cls(tuple(p for p, _ in data), tuple(e for _, e in data))


def _int_rows(rows, what: str, fields: tuple[str, ...]):
    """JSON rows of integers, such as [[p, e], ...], one per named field; a
    row of another length or a non-integer, JSON true and false included,
    is a ValueError naming the row."""
    for row in rows:
        if not isinstance(row, list) or len(row) != len(fields):
            raise ValueError(f"{what} entry {row} is not [{', '.join(fields)}]")
        if not all(type(x) is int for x in row):
            raise ValueError(f"{what} entry {row} holds a non-integer")
    return rows


class ProfiniteApprox:
    """Element of Zhat known modulo p**k_p for each budget prime p.

    ``prec[p]`` is the current precision k_p (<= budget exponent); residues
    are least nonnegative.  Arithmetic keeps the minimum precision of the
    operands; division by an integer consumes v_p of it per prime and
    requires the corresponding divisibility, failing loudly otherwise.

    The constructor is the validating boundary: it reduces the residues and
    names a missing or extra prime, a non-integer residue or precision, and
    a precision outside 0..e.  Kernels whose results are reduced by
    construction build them with ``_trusted``.  Values may share their
    ``prec`` dicts, so ``prec`` and ``residue`` are read-only.
    """

    __slots__ = ("budget", "prec", "residue")

    def __init__(self, budget: PrimeBudget, residue: Mapping[int, int],
                 prec: Mapping[int, int] | None = None):
        if prec is None:
            prec = budget.full_prec
        _check_primes(budget, residue, "profinite coefficient")
        _check_primes(budget, prec, "profinite coefficient precision")
        self.budget = budget
        self.prec, self.residue = {}, {}
        for p, e in budget.full_prec.items():
            k, r = prec[p], residue[p]
            if type(k) is not int:
                raise ValueError(f"precision {k!r} at p={p} is not an integer")
            if type(r) is not int:
                raise ValueError(f"residue {r!r} at p={p} is not an integer")
            if k < 0:
                raise PrecisionError(f"negative precision at p={p}")
            if k > e:
                raise ValueError(f"precision {k} exceeds the budget exponent {e} at p={p}")
            self.prec[p] = k
            self.residue[p] = r % p**k

    @classmethod
    def _trusted(cls, budget: PrimeBudget, residue: dict, prec: dict) -> "ProfiniteApprox":
        """A value a kernel has already reduced, built without checks: the
        keys of both dicts are the budget primes in order, and at each p the
        residue is least nonnegative mod p**k for an int 0 <= k <= e."""
        x = object.__new__(cls)
        x.budget = budget
        x.prec = prec
        x.residue = residue
        return x

    @classmethod
    def from_int(cls, budget: PrimeBudget, n: int) -> "ProfiniteApprox":
        if not isinstance(n, int):
            raise TypeError(f"cannot embed {n!r} as an integer")
        return cls._trusted(budget, {p: n % m for p, m in budget.moduli.items()},
                            budget.full_prec)

    @classmethod
    def from_rational(cls, budget: PrimeBudget, q: Fraction) -> "ProfiniteApprox":
        """Embed a rational whose denominator is a unit at every budget prime."""
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"cannot embed {q!r} as a rational")
        q = Fraction(q)
        return cls._trusted(budget, {p: rational_mod(q, m) for p, m in budget.moduli.items()},
                            budget.full_prec)

    def residue_mod(self, p: int, k: int) -> int:
        """Value mod p**k; raises PrecisionError if k digits are not stored."""
        if k == 0:
            return 0
        if self.prec[p] < k:
            raise PrecisionError(
                f"need {self.residue!r} mod {p}^{k}, stored precision {self.prec[p]}"
            )
        return self.residue[p] % p**k

    def lift_symmetric(self) -> int:
        """Integer of least absolute value matching every stored residue."""
        x, m = crt_lift(
            [(self.residue[p], p ** self.prec[p]) for p in self.budget.primes]
        )
        return x - m if 2 * x > m else x

    # -- arithmetic -----------------------------------------------------

    @classmethod
    def _embed(cls, budget: PrimeBudget, x):
        """x as a value over ``budget``, the one embedding into Zhat: a value
        over another budget is a ValueError, an int or a Fraction is
        embedded, and any other type is NotImplemented."""
        if isinstance(x, ProfiniteApprox):
            if x.budget != budget:
                raise ValueError("mixed prime budgets")
            return x
        if isinstance(x, int):
            return cls.from_int(budget, x)
        if isinstance(x, Fraction):
            return cls.from_rational(budget, x)
        return NotImplemented

    def _zip(self, other, fn):
        other = self._embed(self.budget, other)
        if other is NotImplemented:
            return NotImplemented
        if self.prec is other.prec:
            prec = self.prec
        else:
            prec = {p: min(k, other.prec[p]) for p, k in self.prec.items()}
        a, b = self.residue, other.residue
        res = {p: fn(a[p], b[p]) % p**k for p, k in prec.items()}
        return ProfiniteApprox._trusted(self.budget, res, prec)

    def __add__(self, other):
        return self._zip(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip(other, sub)

    def __rsub__(self, other):
        other = self._embed(self.budget, other)
        return NotImplemented if other is NotImplemented else other._zip(self, sub)

    def __mul__(self, other):
        if isinstance(other, int):
            prec = self.prec
            res = {p: r * other % p**prec[p] for p, r in self.residue.items()}
            return ProfiniteApprox._trusted(self.budget, res, prec)
        return self._zip(other, mul)

    __rmul__ = __mul__

    def __neg__(self):
        prec = self.prec
        res = {p: -r % p**prec[p] for p, r in self.residue.items()}
        return ProfiniteApprox._trusted(self.budget, res, prec)

    def divide_exact(self, n: int) -> "ProfiniteApprox":
        """Divide by a nonzero integer, consuming v_p(n) precision per prime.

        Requires the stored residue to be divisible by the p-part of n at
        each prime (raises PrecisionError naming the prime otherwise).
        """
        if n == 0:
            raise ZeroDivisionError("division of a profinite value by zero")
        sign = -1 if n < 0 else 1
        n = abs(n)
        prec, res = {}, {}
        for p in self.budget.primes:
            v, unit = vp_split(n, p)
            k = self.prec[p] - v
            if k < 0:
                raise PrecisionError(
                    f"division by {n} exhausts precision at p={p}"
                )
            r = self.residue[p]
            if v and r % p**v != 0:
                raise PrecisionError(
                    f"residue {r} not divisible by {p}^{v} (division by {n})"
                )
            res[p] = ((r // p**v) * modinv(unit, p**k) * sign) % p**k if k else 0
            prec[p] = k
        return ProfiniteApprox._trusted(self.budget, res, prec)

    # -- predicates -----------------------------------------------------

    def is_zero(self, at=None) -> bool:
        """False if some residue is nonzero; else unknown if some prime has
        no digits, a PrecisionError naming ``at`` (a caller's degree or key)
        and the prime; else True."""
        if any(self.residue.values()):
            return False
        for p, k in self.prec.items():
            if k == 0:
                what = "value" if at is None else f"coefficient {at}"
                raise PrecisionError(f"{what} has no digits at p={p}: zero or not is unknown")
        return True

    def eq_within(self, other) -> bool:
        """Equal within the stored precision: the one comparison that counts
        a prime with no digits as agreeing."""
        return not any((self - self._embed(self.budget, other)).residue.values())

    def __eq__(self, other):
        """Through is_zero: PrecisionError when the answer is unknown."""
        if isinstance(other, (int, Fraction, ProfiniteApprox)):
            try:
                diff = self - other
            except ValueError:
                return NotImplemented
            return diff.is_zero()
        return NotImplemented

    def __hash__(self):
        raise TypeError("ProfiniteApprox equality is budget-relative; not hashable")

    def __repr__(self):
        parts = ", ".join(
            f"{self.residue[p]} mod {p}^{self.prec[p]}" for p in self.budget.primes
        )
        return f"ProfiniteApprox({parts})"

    def to_json(self):
        return {
            "primes": [[p, self.prec[p], self.residue[p]] for p in self.budget.primes]
        }

    @classmethod
    def from_json(cls, budget: PrimeBudget, data) -> "ProfiniteApprox":
        rows = _int_rows(data["primes"], "profinite coefficient", ("prime", "precision", "residue"))
        primes = [row[0] for row in rows]
        for p in primes:
            if primes.count(p) > 1:
                raise ValueError(f"profinite coefficient repeats prime {p}")
        res = {p: r for p, _, r in rows}
        prec = {p: k for p, k, _ in rows}
        return cls(budget, res, prec)


def _check_primes(budget: PrimeBudget, mapping: Mapping[int, int], what: str) -> None:
    """ValueError naming the first key of ``mapping`` outside the budget, or
    else the first budget prime it lacks."""
    for p in mapping:
        if p not in budget.full_prec:
            raise ValueError(f"{what} has prime {p} outside budget {budget.to_json()}")
    for p in budget.primes:
        if p not in mapping:
            raise ValueError(f"{what} lacks budget prime {p}")


def is_unit(r: ProfiniteApprox) -> bool:
    """True iff r is a unit at every budget prime (unit *within budget*:
    a finite budget cannot see primes outside it)."""
    for p in r.budget.primes:
        if r.prec[p] < 1:
            raise PrecisionError(f"no digits at p={p}")
        if r.residue[p] % p == 0:
            return False
    return True


def gen_binomial(r: ProfiniteApprox, k: int, p: int, e: int) -> int:
    """C(r, k) mod p**e for a profinite exponent r.

    Needs r mod p**(e + v_p(k!)): the integer binomial of any lift that
    precise reduces to the same class mod p**e, because division by k! is
    absorbed by the precision inflation rather than performed modularly.
    """
    if k == 0:
        return 1 % p**e
    need = e + vp_factorial(k, p)
    x = r.residue_mod(p, need)  # PrecisionError names the missing exponent
    return math.comb(x, k) % p**e


def compatible_lift(b: Mapping[int, ProfiniteApprox], m: int, primes=None) -> int:
    """Integer b with b = b_i (mod i) for i = 1..m, by CRT over the maximal
    prime powers q_k <= m.

    Checks the compatibility b_i = b_j (mod j) for j | i within the budget
    first, and raises IncompatibleCongruences naming a violated congruence.
    With ``primes`` given, only those primes' congruences are lifted (the
    others are outside the caller's budget); by default every prime <= m
    must lie inside the budget or a PrecisionError is raised.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    for i in range(1, m + 1):
        if i not in b:
            raise ValueError(f"missing b_{i}")
    budget = b[1].budget
    # compatibility within budget
    for i in range(2, m + 1):
        for j in range(2, i):
            if i % j == 0:
                diff = b[i] - b[j]
                for p in budget.primes:
                    v = vp(j, p)
                    if v == 0:
                        continue
                    k = min(v, diff.prec[p])
                    if k and diff.residue[p] % p**k != 0:
                        raise IncompatibleCongruences(
                            f"b_{i} != b_{j} (mod {j}) at p={p}"
                        )
    pairs = []
    for p in set_primes_upto(m):
        if primes is not None and p not in primes:
            continue
        if p not in budget.primes:
            raise PrecisionError(f"prime {p} <= {m} is outside the budget")
        r, q = largest_prime_power(p, m, budget.exponent(p))
        pairs.append((b[q].residue_mod(p, r), q))
    return crt_lift(pairs)[0]


def set_primes_upto(n: int) -> list[int]:
    """Primes <= n, each decided by ``is_prime``."""
    return [p for p in range(2, n + 1) if is_prime(p)]


# Miller-Rabin with the primes up to 37 as bases decides every n below this
# bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Exact primality for n below 3.18e23 (deterministic Miller-Rabin);
    larger n raise ValueError rather than get a probable answer, a non-int TypeError."""
    if type(n) is not int:
        raise TypeError(f"is_prime needs an int, not {n!r}")
    if n >= _MR_BOUND:
        raise ValueError(f"primality of {n} is not decided above {_MR_BOUND}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = vp(n - 1, 2)
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rational_to_str(q: Fraction | int) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def rational_from_str(s: str) -> Fraction:
    """Parse "num/den" or an integer string "num"; a zero denominator is a
    ValueError, like any other malformed coefficient."""
    num, slash, den = s.partition("/")
    den = int(den) if slash else 1
    if den == 0:
        raise ValueError(f"zero denominator in coefficient {s!r}")
    return Fraction(int(num), den)
