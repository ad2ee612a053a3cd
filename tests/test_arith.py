import math
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckops import (
    IncompatibleCongruences,
    InfiniteValuation,
    PrecisionError,
    PrimeBudget,
    ProfiniteApprox,
    compatible_lift,
    crt_lift,
    gen_binomial,
    is_unit,
    vp,
    vp_factorial,
)
from ckops.arith import is_prime, largest_prime_power, rational_reconstruct, set_primes_upto, vp_split
from oracles import primes_by_sieve, validating_zip


def test_vp_examples():
    assert vp(12, 2) == 2
    assert vp(12, 5) == 0
    assert vp(4032, 7) == 1
    assert vp(-4032, 7) == 1


def test_vp_split_is_valuation_and_unit_part():
    # one loop gives both: n = p^v u with p not dividing u, sign in u
    assert vp_split(12, 2) == (2, 3)
    assert vp_split(-4032, 7) == (1, -576)
    assert vp_split(5, 3) == (0, 5)
    for n in [*range(-60, 0), *range(1, 61), 2**40 * 3**7]:
        for p in (2, 3, 5, 7):
            v, u = vp_split(n, p)
            assert v == vp(n, p) and n == p**v * u and u % p, (n, p)
    with pytest.raises(InfiniteValuation):
        vp_split(0, 3)


def test_largest_prime_power_examples():
    assert largest_prime_power(2, 25) == (4, 16)
    assert largest_prime_power(5, 25) == (2, 25)
    assert largest_prime_power(7, 6) == (0, 1)
    assert largest_prime_power(3, 100, 2) == (2, 9)


@pytest.mark.parametrize("p", [1, 0, -2])
def test_largest_prime_power_rejects_p_below_two(p):
    # p = 1 and 0 once looped for ever
    with pytest.raises(ValueError, match=f"needs p >= 2, got {p}"):
        largest_prime_power(p, 10)


def test_vp_zero_signals_infinite_valuation():
    with pytest.raises(InfiniteValuation):
        vp(0, 3)


def test_vp_factorial_examples():
    assert vp_factorial(0, 3) == 0
    assert vp_factorial(10, 2) == 8
    assert vp_factorial(6, 7) == 0


def test_vp_factorial_matches_exact_factorial():
    for n in range(21):
        for p in (2, 3, 5, 7, 11, 13):
            if n == 0:
                assert vp_factorial(n, p) == 0
            else:
                assert vp_factorial(n, p) == vp(math.factorial(n), p)


def test_crt_examples():
    assert crt_lift([(1, 2), (2, 3)])[0] == 5
    assert crt_lift([(0, 1)])[0] == 0
    assert crt_lift([(3, 4), (3, 9), (2, 5)])[0] == 147


def test_crt_non_coprime_names_pair():
    with pytest.raises(IncompatibleCongruences, match="4 and 6"):
        crt_lift([(1, 4), (3, 6)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.permutations([5, 7, 8, 9, 11]))
def test_crt_reconstructs_hidden_integer(hidden, moduli):
    pairs = [(hidden % m, m) for m in moduli]
    x, M = crt_lift(pairs)
    for r, m in pairs:
        assert x % m == r


def test_compatible_lift_constant_family(budget):
    fam = {i: ProfiniteApprox.from_int(budget, 7) for i in range(1, 9)}
    b = compatible_lift(fam, 8)
    for i in range(1, 9):
        assert (b - 7) % i == 0


def test_compatible_lift_trivial_modulus(budget):
    fam = {1: ProfiniteApprox.from_int(budget, 12345)}
    assert compatible_lift(fam, 1) == 0


def test_compatible_lift_spec_family(budget):
    # b_1=0(1), b_2=1(2), b_3=2(3), b_4=1(4) -> 5 mod 12
    fam = {i: ProfiniteApprox.from_int(budget, v) for i, v in enumerate([0, 1, 2, 1], 1)}
    b = compatible_lift(fam, 4)
    assert b % 2 == 1 and b % 3 == 2 and b % 4 == 1
    assert b % 12 == 5


def test_compatible_lift_randomized_hidden():
    budget = PrimeBudget.uniform([2, 3, 5, 7], 8)
    rng = random.Random(3)
    for _ in range(20):
        hidden = rng.randrange(10**6)
        m = rng.randint(2, 10)  # primes <= 10 stay inside the budget
        # a valid family: each b_i agrees with the hidden integer mod i
        fam = {i: ProfiniteApprox.from_int(budget, hidden + i * rng.randrange(50))
               for i in range(1, m + 1)}
        b = compatible_lift(fam, m)
        for i in range(1, m + 1):
            assert (b - hidden) % i == 0


def test_compatible_lift_incompatible_raises(budget):
    fam = {i: ProfiniteApprox.from_int(budget, v) for i, v in enumerate([0, 1, 0, 0], 1)}
    with pytest.raises(IncompatibleCongruences):
        compatible_lift(fam, 4)


def test_gen_binomial_examples(budget):
    r5 = ProfiniteApprox.from_int(budget, 5)
    assert gen_binomial(r5, 2, 3, 2) == 10 % 9
    rm1 = ProfiniteApprox.from_int(budget, -1)
    assert gen_binomial(rm1, 3, 2, 3) == 7
    assert gen_binomial(r5, 0, 2, 4) == 1


def test_gen_binomial_matches_integer_binomial(budget):
    rng = random.Random(0)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        k = rng.randint(0, 6)
        e = rng.randint(1, 3)
        bound = p ** (e + vp_factorial(k, p))
        n = rng.randrange(bound)
        r = ProfiniteApprox.from_int(budget, n)
        assert gen_binomial(r, k, p, e) == math.comb(n, k) % p**e


def test_gen_binomial_pascal(budget):
    rng = random.Random(1)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        k = rng.randint(0, 5)
        e = rng.randint(1, 3)
        r = ProfiniteApprox.from_int(budget, rng.randrange(10**6))
        lhs = (gen_binomial(r, k, p, e) + gen_binomial(r, k + 1, p, e)) % p**e
        rhs = gen_binomial(r + 1, k + 1, p, e)
        assert lhs == rhs


def test_gen_binomial_insufficient_precision():
    budget = PrimeBudget.uniform([2], 3)
    r = ProfiniteApprox.from_int(budget, 5)
    with pytest.raises(PrecisionError):
        gen_binomial(r, 4, 2, 2)  # needs 2 + v_2(4!) = 5 digits


def test_is_unit(budget):
    assert is_unit(ProfiniteApprox.from_int(budget, 1))
    assert not is_unit(ProfiniteApprox.from_int(budget, 2))
    # divisible by 3 -> not a unit within budget
    assert not is_unit(ProfiniteApprox.from_int(budget, 3))
    assert is_unit(ProfiniteApprox.from_int(budget, 11))


def test_profinite_arithmetic_and_precision(budget):
    a = ProfiniteApprox.from_int(budget, 10)
    b = a.divide_exact(2)
    assert b.eq_within(5)
    assert b.prec[2] == budget.exponent(2) - 1  # one digit consumed at 2
    assert b.prec[3] == budget.exponent(3)
    with pytest.raises(PrecisionError):
        ProfiniteApprox.from_int(budget, 1).divide_exact(2)


def test_zero_test_is_three_valued():
    # zero, nonzero, or unknown: zero residues with no digits at p = 2
    B = PrimeBudget.uniform([2, 3], 4)
    blind = ProfiniteApprox(B, {2: 0, 3: 0}, {2: 0, 3: 4})
    with pytest.raises(PrecisionError, match="value has no digits at p=2"):
        blind.is_zero()
    with pytest.raises(PrecisionError, match="coefficient 7 has no digits at p=2"):
        blind.is_zero(7)
    with pytest.raises(PrecisionError, match="p=2"):
        blind == 0
    with pytest.raises(PrecisionError, match="p=2"):
        blind != 0
    # within the stored precision the value agrees with 0, and only eq_within says so
    assert blind.eq_within(0)
    # a nonzero residue decides, whatever p = 2 holds
    assert not ProfiniteApprox(B, {2: 0, 3: 5}, {2: 0, 3: 4}).is_zero()
    assert ProfiniteApprox(B, {2: 3, 3: 0}, {2: 4, 3: 0}) != 0
    assert ProfiniteApprox(B, {2: 0, 3: 0}, {2: 1, 3: 4}).is_zero()
    assert ProfiniteApprox.from_int(B, 6) == Fraction(6)
    assert ProfiniteApprox.from_int(B, 6) != Fraction(1, 2) and ProfiniteApprox.from_int(B, 6) != 7


def test_profinite_serialization(budget):
    a = ProfiniteApprox.from_int(budget, 12345).divide_exact(3)
    back = ProfiniteApprox.from_json(budget, a.to_json())
    assert back.eq_within(a)
    assert back.prec == a.prec


def test_symmetric_lift(budget):
    assert ProfiniteApprox.from_int(budget, -5).lift_symmetric() == -5
    assert ProfiniteApprox.from_int(budget, 17).lift_symmetric() == 17


def test_rational_reconstruct_round_trip():
    from fractions import Fraction

    from ckops.arith import modinv

    M = 3**12 * 7**6
    for q in [Fraction(1, 2), Fraction(-3, 5), Fraction(22, 5), Fraction(4)]:
        r = (q.numerator * modinv(q.denominator, M)) % M
        assert rational_reconstruct(r, M) == q
    # a wide random residue has no small-height explanation
    assert rational_reconstruct(12345678901, M) is None


def test_is_prime_matches_sieve_and_rejects_strong_pseudoprimes():
    primes = set(primes_by_sieve(20000))
    assert [n for n in range(-3, 20001) if is_prime(n)] == sorted(primes) == set_primes_upto(20000)
    assert all(set_primes_upto(n) == primes_by_sieve(n) for n in range(-2, 40))
    # composites that pass Miller-Rabin to some of the bases, and Carmichael
    # numbers with no factor among the bases (41*61*101, 41*73*137)
    for n in (341, 561, 2047, 3215031751, 3825123056546413051, 10**18 + 1, 252601, 410041):
        assert not is_prime(n), n
    for n in (2**31 - 1, 10**9 + 7, 2**61 - 1, 10**18 + 9):
        assert is_prime(n), n
    # the least composite passing every base: beyond the decided range
    with pytest.raises(ValueError, match="not decided"):
        is_prime(318665857834031151167461)


@pytest.mark.parametrize("bad", [2.0, 29.0, 43.0, 7.5, True, Fraction(5), "5"])
def test_is_prime_names_a_non_int(bad):
    # 2.0 and 29.0 once passed the trial divisions, 43.0 reached pow()
    with pytest.raises(TypeError, match=f"is_prime needs an int, not {re.escape(repr(bad))}"):
        is_prime(bad)


# -- the validating constructors ------------------------------------------


@pytest.mark.parametrize("residue, prec, message", [
    ({2: 1}, None, "lacks budget prime 3"),
    ({2: 1, 3: 1}, {2: 4}, "precision lacks budget prime 3"),
    ({2: 1, 3: 1, 5: 1}, None, r"has prime 5 outside budget \[\[2, 4\], \[3, 4\]\]"),
    ({2: 1, 3: 1}, {2: 4, 3: 4, 7: 1}, "precision has prime 7 outside budget"),
    ({2: 1.5, 3: 1}, None, r"residue 1.5 at p=2 is not an integer"),
    ({2: 1, 3: True}, None, "residue True at p=3 is not an integer"),
    ({2: 1, 3: 1}, {2: 2.5, 3: 4}, "precision 2.5 at p=2 is not an integer"),
    ({2: 1, 3: 1}, {2: 4, 3: False}, "precision False at p=3 is not an integer"),
    ({2: 1, 3: 1}, {2: 5, 3: 4}, "precision 5 exceeds the budget exponent 4 at p=2"),
])
def test_profinite_constructor_names_bad_input(residue, prec, message):
    B = PrimeBudget.uniform([2, 3], 4)
    with pytest.raises(ValueError, match=message):
        ProfiniteApprox(B, residue, prec)


def test_profinite_constructor_reduces_and_keeps_precision():
    B = PrimeBudget.uniform([2, 3], 4)
    x = ProfiniteApprox(B, {2: -1, 3: 100}, {2: 2, 3: 0})
    assert (x.residue, x.prec) == ({2: 3, 3: 0}, {2: 2, 3: 0})
    with pytest.raises(PrecisionError, match="negative precision at p=3"):
        ProfiniteApprox(B, {2: 1, 3: 1}, {2: 1, 3: -1})
    with pytest.raises(TypeError):
        ProfiniteApprox.from_int(B, 1.5)
    for q in (0.5, "1/7"):
        with pytest.raises(TypeError):
            ProfiniteApprox.from_rational(B, q)


@pytest.mark.parametrize("primes, exponents, message", [
    ((2, 4), (4, 2), "budget prime 4 is not a prime"),
    ((2, 1), (4, 2), "budget prime 1 is not a prime"),
    ((2, 3), (4, 2.5), r"budget exponent 2.5 at p=3 is not an integer"),
    ((2, 3), (4, True), "budget exponent True at p=3 is not an integer"),
    ((2.0, 3), (4, 4), r"budget prime 2.0 is not an integer"),
    ((2, 3), (4, 0), "exponents must be >= 1"),
    ((2, 2), (4, 4), "distinct"),
    ((2, 3), (4,), "align"),
    # a value over no prime has no digits, and was answered as zero
    ((), (), "budget names no prime"),
])
def test_budget_constructor_names_bad_input(primes, exponents, message):
    with pytest.raises(ValueError, match=message):
        PrimeBudget(primes, exponents)


def test_budget_moduli_leave_its_face_unchanged():
    B = PrimeBudget((2, 5, 3), (4, 1, 2))
    assert B.moduli == {2: 16, 5: 5, 3: 9} and B.full_prec == {2: 4, 5: 1, 3: 2}
    assert list(B.moduli) == [2, 5, 3]
    assert repr(B) == "PrimeBudget((2, 5, 3), (4, 1, 2))"
    assert B == PrimeBudget((2, 5, 3), (4, 1, 2)) != PrimeBudget((2, 5, 3), (4, 1, 3))
    assert hash(B) == hash(((2, 5, 3), (4, 1, 2)))
    assert B.to_json() == [[2, 4], [5, 1], [3, 2]]
    assert B.modulus == 16 * 5 * 9


# -- trusted arithmetic against the validating kernel it replaced ---------


def _same_dicts(x, y):
    """Equal residue and precision dicts, every residue and precision an int."""
    assert (x.residue, x.prec) == (y.residue, y.prec)
    assert all(type(v) is int for v in (*x.residue.values(), *x.prec.values()))
    return True


def test_trusted_arithmetic_matches_validating_zip():
    # seeded values with no digits, some digits and every digit per prime,
    # against values, ints and Fractions whose denominators are budget units;
    # each result also passes the public constructor unchanged
    rng = random.Random(15)
    B = PrimeBudget((2, 3, 5), (4, 2, 3))

    def value():
        kind = rng.choice(["none", "partial", "full"])
        prec = {p: {"none": 0, "partial": rng.randint(0, e), "full": e}[kind]
                for p, e in zip(B.primes, B.exponents)}
        return ProfiniteApprox(B, {p: rng.randrange(-p**5, p**5) for p in B.primes}, prec)

    def operand():
        kind = rng.choice(["value", "int", "Fraction"])
        if kind == "value":
            return value()
        if kind == "int":
            return rng.randint(-300, 300)
        return Fraction(rng.randint(-60, 60), rng.choice([1, 7, 11, 13, 77]))

    for trial in range(400):
        a, b = value(), operand()
        pairs = [
            (a + b, validating_zip(a, b, operator.add)),
            (b + a, validating_zip(a, b, operator.add)),
            (a - b, validating_zip(a, b, operator.sub)),
            (b - a, validating_zip(a, b, lambda x, y: y - x)),
            (a * b, validating_zip(a, b, operator.mul)),
            (b * a, validating_zip(a, b, operator.mul)),
            (-a, validating_zip(a, 0, lambda x, y: -x)),
        ]
        for got, want in pairs:
            assert _same_dicts(got, want), trial
            assert _same_dicts(got, ProfiniteApprox(B, got.residue, got.prec)), trial
