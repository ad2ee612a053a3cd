import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckops import ModMatrix, howell_form, in_howell_span, in_row_span, solve_vandermonde
from ckops.linalg import _howell_rows
from oracles import span_enumerate, vdm_value


def test_howell_identity():
    I3 = ModMatrix(7, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert howell_form(I3) == I3


def test_howell_spec_example_mod4():
    A = ModMatrix(4, [[2, 0], [0, 0]])
    H = howell_form(A)
    assert list(map(list, H.entries)) == [[2, 0]]


def test_howell_span_cardinality_mod4():
    A = ModMatrix(4, [[1, 1], [0, 2]])
    assert len(span_enumerate(A)) == 8
    H = howell_form(A)
    assert span_enumerate(H) == span_enumerate(A)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([4, 8, 9, 6, 5]),
    st.lists(st.lists(st.integers(0, 8), min_size=3, max_size=3), min_size=1, max_size=3),
)
def test_howell_idempotent_and_span_preserving(mod, rows):
    A = ModMatrix(mod, rows)
    H = howell_form(A)
    assert howell_form(H) == H
    assert span_enumerate(H) == span_enumerate(A)


def test_in_row_span_zero_vector():
    A = ModMatrix(9, [[3, 1], [2, 5]])
    ok, cert = in_row_span(A, [0, 0])
    assert ok and cert == [0, 0]


def test_in_row_span_binomial_rows_mod8():
    # rows L_r = (C(r,0), C(r,1), C(r,2)) for odd r mod 8: the monomial
    # column (0,0,d) lies in the span iff 4 | d, matching v_2(d_2) = 2
    A = ModMatrix(8, [[1, r, r * (r - 1) // 2 % 8] for r in (1, 3, 5, 7)])
    for d in range(8):
        ok, _ = in_row_span(A, [0, 0, d])
        assert ok == (d % 4 == 0), d


def test_in_row_span_matches_enumeration():
    rng = random.Random(7)
    for _ in range(120):
        mod = rng.choice([4, 8, 9, 6])
        rows = [[rng.randrange(mod) for _ in range(3)] for _ in range(rng.randint(1, 3))]
        A = ModMatrix(mod, rows)
        S = span_enumerate(A)
        v = [rng.randrange(mod) for _ in range(3)]
        ok, cert = in_row_span(A, v)
        assert ok == (tuple(v) in S)
        if ok:
            acc = [0, 0, 0]
            for c, row in zip(cert, A.entries):
                acc = [(a + c * b) % mod for a, b in zip(acc, row)]
            assert acc == [x % mod for x in v]


@st.composite
def _matrix_and_vector(draw):
    """A random matrix mod p^e and a vector that is a random combination of
    its rows, perturbed in one entry about half the time."""
    p = draw(st.sampled_from([2, 3, 5]))
    q = p ** draw(st.integers(1, 4))
    cols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols), max_size=5))
    coefs = draw(st.lists(st.integers(0, q - 1), min_size=len(rows), max_size=len(rows)))
    v = [sum(c * row[k] for c, row in zip(coefs, rows)) % q for k in range(cols)]
    if draw(st.booleans()):
        v[draw(st.integers(0, cols - 1))] += draw(st.integers(1, q - 1)) if q > 2 else 1
    return ModMatrix(q, rows, cols=cols), v


@settings(max_examples=300, deadline=None)
@given(_matrix_and_vector())
def test_in_howell_span_matches_in_row_span(case):
    # production route for a known Howell form: the certificate-free test;
    # oracles: in_row_span, which re-reduces A and builds the certificate,
    # and, where the span is small, brute-force enumeration
    A, v = case
    q = A.modulus
    member = in_howell_span(howell_form(A), v)
    ok, cert = in_row_span(A, v)
    assert member == ok
    if ok:  # the certificate recombines A's rows to v
        acc = [sum(c * row[k] for c, row in zip(cert, A.entries)) % q for k in range(A.cols)]
        assert acc == [x % q for x in v]
    # in_row_span reduces [A | I]; the rows with a nonzero A-part are howell_form(A)
    augmented = [list(r) + [int(k == i) for k in range(A.rows)] for i, r in enumerate(A.entries)]
    a_part = [r[: A.cols] for r in _howell_rows(q, augmented) if any(r[: A.cols])]
    assert ModMatrix(q, a_part, cols=A.cols) == howell_form(A)
    if q**A.cols <= 300:
        assert member == (tuple(x % q for x in v) in span_enumerate(A))


def test_row_span_invariant_under_unimodular():
    rng = random.Random(11)
    for _ in range(40):
        mod = rng.choice([8, 9, 25])
        rows = [[rng.randrange(mod) for _ in range(3)] for _ in range(2)]
        A = ModMatrix(mod, rows)
        # random unimodular 2x2: unit diagonal triangular times swap
        u = rng.choice([x for x in range(1, mod) if _coprime(x, mod)])
        t = rng.randrange(mod)
        new = [
            [(u * a + t * b) % mod for a, b in zip(rows[0], rows[1])],
            rows[1],
        ]
        if rng.random() < 0.5:
            new = [new[1], new[0]]
        assert howell_form(ModMatrix(mod, new)) == howell_form(A)


def _coprime(a, m):
    import math

    return math.gcd(a, m) == 1


def test_vandermonde_picks_exact_column():
    xs = solve_vandermonde([1, 2], [1, 1])
    assert xs == [Fraction(1), Fraction(0)]


def test_vandermonde_determinant_example():
    # nodes (1,2,3): det = prod (a_s - a_t) / prod k! = (1*2*1)/(1*2) = 1
    assert vdm_value([1, 2, 3]) == 1
    xs = solve_vandermonde([1, 2, 3], [0, 0, 1])
    # integral solution since the determinant is 1
    assert all(x.denominator == 1 for x in xs)


def test_vandermonde_residual_zero():
    rng = random.Random(2)
    from ckops.arith import gbinom

    for _ in range(20):
        nodes = rng.sample(range(1, 30), 3)
        target = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        xs = solve_vandermonde(nodes, target)
        for k in range(3):
            assert sum(x * gbinom(a, k) for x, a in zip(xs, nodes)) == target[k]


def test_vandermonde_errors():
    with pytest.raises(ValueError, match="repeated"):
        solve_vandermonde([1, 1], [0, 1])
    with pytest.raises(ValueError, match="unit at p=2"):
        # nodes (1,3): solution has denominator 2; not liftable at p=2
        solve_vandermonde([1, 3], [0, 1], modulus=(2, 4))


def test_vandermonde_modular_reduction():
    # nodes (1,2,4) give determinant 3, a unit at p=5
    xs = solve_vandermonde([1, 2, 4], [0, 0, 1], modulus=(5, 2))
    exact = solve_vandermonde([1, 2, 4], [0, 0, 1])
    from ckops.arith import rational_mod

    assert xs == [rational_mod(x, 25) for x in exact]
