"""Linear algebra over Z/M: Howell normal form, row-span membership (with
certificates read off the reduction of [A | I], or certificate-free against
a Howell form), and exact Vandermonde-type solving.

Row spans over Z/p^e are not free modules, so reduced echelon forms do not
decide membership; the Howell form does (equal row spans iff equal Howell
forms), which is what the image-lattice oracles need.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .arith import gbinom, modinv, rational_mod


class ModMatrix:
    """Immutable matrix over Z/modulus with entries reduced into [0, modulus)."""

    __slots__ = ("modulus", "rows", "cols", "entries")

    def __init__(self, modulus: int, entries: Sequence[Sequence[int]], cols: int | None = None):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.modulus = modulus
        ents = [tuple(x % modulus for x in row) for row in entries]
        if ents:
            cols = len(ents[0])
            if any(len(r) != cols for r in ents):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.entries = tuple(ents)
        self.rows = len(ents)
        self.cols = cols

    def __eq__(self, other):
        return (
            isinstance(other, ModMatrix)
            and self.modulus == other.modulus
            and self.entries == other.entries
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.modulus, self.entries, self.cols))

    def __repr__(self):
        return f"ModMatrix(mod {self.modulus}, {list(map(list, self.entries))})"


def _gcdex(a: int, b: int, n: int) -> tuple[int, int, int, int, int]:
    """g, s, t, u, v with sa+tb = g = gcd(a,b), ua+vb = 0, sv-tu a unit mod n."""
    a %= n
    b %= n
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    g = old_r
    if g == 0:
        return 0, 1, 0, 0, 1
    u, v = -(b // g), a // g
    return g, old_s % n, old_t % n, u % n, v % n


def _unit_multiplier(a: int, n: int) -> int:
    """Unit w mod n with w*a = gcd(a, n) (mod n)."""
    a %= n
    if a == 0:
        return 1
    d = math.gcd(a, n)
    ap, nd = a // d, n // d
    w0 = modinv(ap % nd, nd) if nd > 1 else 1
    w = w0 % n
    step = nd if nd else n
    while math.gcd(w, n) != 1:
        w = (w + step) % n
    return w


def _howell_rows(modulus: int, rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Core Howell reduction: the nonzero rows of the Howell form, pivot
    columns increasing."""
    n = modulus
    cols = len(rows[0]) if rows else 0
    work = [list(r) for r in rows]
    pivots: list[tuple[int, int]] = []  # (column, row-index in result)
    result: list[list[int]] = []
    c = 0
    while c < cols:
        # eliminate column c across all remaining work rows
        live = [i for i in range(len(work)) if work[i][c] % n != 0]
        while len(live) > 1:
            i, j = live[0], live[1]
            a, b = work[i][c], work[j][c]
            g, s, t, u, v = _gcdex(a, b, n)
            ri = [(s * x + t * y) % n for x, y in zip(work[i], work[j])]
            rj = [(u * x + v * y) % n for x, y in zip(work[i], work[j])]
            work[i], work[j] = ri, rj
            live = [i for i in live if work[i][c] % n != 0]
        if live:
            row = work.pop(live[0])
            w = _unit_multiplier(row[c], n)
            row = [(w * x) % n for x in row]
            g = row[c]  # now the canonical generator gcd(old, n)
            # Howell closure: the annihilator multiple spans deeper columns
            u = n // math.gcd(g, n)
            if u % n != 0:
                ann = [(u * x) % n for x in row]
                if any(ann):
                    work.append(ann)
            result.append(row)
            pivots.append((c, len(result) - 1))
        c += 1

    # reduce entries above each pivot modulo the pivot
    for c, idx in pivots:
        g = result[idx][c]
        for k in range(len(result)):
            if k == idx:
                continue
            q = result[k][c] // g
            if q:
                result[k] = [(x - q * y) % n for x, y in zip(result[k], result[idx])]
    return result


def howell_form(A: ModMatrix) -> ModMatrix:
    """Howell normal form of A; equal row spans iff equal Howell forms."""
    return ModMatrix(A.modulus, _howell_rows(A.modulus, A.entries), cols=A.cols)


def _howell_reduce(H: ModMatrix, v: Sequence[int]) -> list[tuple[int, int]] | None:
    """Reduce v against the rows of the Howell form H, pivot by pivot: the
    steps (row index, multiple) that bring v to zero, or None when v is not
    in H's row span."""
    if len(v) != H.cols:
        raise ValueError(f"vector length {len(v)} != {H.cols} columns")
    n = H.modulus
    vec = [x % n for x in v]
    steps = []
    for idx, row in enumerate(H.entries):
        c = next(i for i, x in enumerate(row) if x)
        if vec[c] == 0:
            continue
        g = row[c]  # canonical pivot, divides the modulus
        if vec[c] % g != 0:
            return None
        t = vec[c] // g
        vec = [(x - t * y) % n for x, y in zip(vec, row)]
        steps.append((idx, t))
    return None if any(vec) else steps


def in_howell_span(H: ModMatrix, v: Sequence[int]) -> bool:
    """Is v in the row span of H, which must already be in Howell form
    (``howell_form``)?  in_row_span without the certificate."""
    return _howell_reduce(H, v) is not None


def in_row_span(A: ModMatrix, v: Sequence[int]) -> tuple[bool, list[int] | None]:
    """Is v a Z/modulus-combination of A's rows?  On success the second
    component certifies it: coefficients c with sum c_i * A[i] = v.

    The augmented rows [A_i | e_i] go through the Howell reduction: the
    rows with a nonzero A-part are howell_form(A), and each one's e-part
    gives its coefficients over A's rows."""
    n, cols = A.modulus, A.cols
    augmented = [
        list(row) + [1 if k == i else 0 for k in range(A.rows)] for i, row in enumerate(A.entries)
    ]
    reduced = [r for r in _howell_rows(n, augmented) if any(r[:cols])]
    steps = _howell_reduce(ModMatrix(n, [r[:cols] for r in reduced], cols=cols), v)
    if steps is None:
        return False, None
    cert = [0] * A.rows
    for idx, t in steps:
        cert = [(c + t * x) % n for c, x in zip(cert, reduced[idx][cols:])]
    return True, cert


def solve_vandermonde(
    nodes: Sequence[int],
    target: Sequence[int | Fraction],
    modulus: tuple[int, int] | None = None,
):
    """Coefficients x with sum_i x_i * L_{a_i} = target, where L_a is the
    column (C(a,0), ..., C(a,n-1)).

    Solved exactly over Q (Gaussian elimination on Fractions).  With
    modulus=(p, e) the exact solution is reduced mod p**e; a denominator
    divisible by p raises ValueError (the p-adic valuation obstruction).

    This is the test oracle for ``stable.construct_Gn``, which computes the
    one column of the inverse it needs in closed form instead.
    """
    n = len(nodes)
    if len(set(nodes)) != n:
        raise ValueError("repeated nodes make the system singular")
    if len(target) != n:
        raise ValueError("target length must match node count")
    M = [[Fraction(gbinom(a, k)) for a in nodes] for k in range(n)]
    b = [Fraction(t) for t in target]
    # forward elimination with partial pivot by nonzero
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular Vandermonde system")
        M[col], M[piv] = M[piv], M[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        b[col] *= inv
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
                b[r] -= f * b[col]
    xs = list(b)
    if modulus is None:
        return xs
    p, e = modulus
    out = []
    for x in xs:
        try:
            out.append(rational_mod(x, p**e))
        except ValueError:
            raise ValueError(
                f"solution denominator {x.denominator} not a unit at p={p}"
            ) from None
    return out

