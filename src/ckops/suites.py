"""Named identity suites runnable from the CLI: each returns (ok, report)
with a minimized counterexample on failure and is deterministic under a
fixed seed.  A passing report carries ``digest``, the CRC-32 of what the
suite drew and compared (``_digest``), so its output changes when an input
or a compared value does, not only when a check fails.

Each suite imports what it calls beyond arith and series, so a process
that runs one suite loads only that suite's modules."""

from __future__ import annotations

import json
import random
import zlib
from fractions import Fraction

from .arith import PrimeBudget, ProfiniteApprox
from .series import (
    Composer,
    ProfiniteRing,
    Q,
    TruncSeries,
    adams_series,
    b_map,
    lg_series,
)


_BUDGET = PrimeBudget.uniform((2, 3, 5, 7), 8)


def _digest(trials) -> str:
    """zlib.crc32 of the compact, sorted-key JSON of ``trials`` (a Fraction
    as its str), as 8 hex digits."""
    text = json.dumps(trials, sort_keys=True, separators=(",", ":"), default=str)
    return f"{zlib.crc32(text.encode()):08x}"


def suite_idempotents(T: int, seed: int) -> tuple[bool, dict]:
    nmax = min(T, 8)
    lgs = [lg_series(r, T) for r in range(T + 1)]
    for n in range(nmax + 1):
        comp = Composer(lgs[n])
        for m in range(nmax + 1):
            got = comp.compose(lgs[m])
            want = lgs[n] if n == m else TruncSeries.zero(Q, T)
            if got != want:
                return False, {"counterexample": f"lg_{n} o lg_{m}"}
    total = TruncSeries.zero(Q, T)
    for r in range(T + 1):
        total = total + lgs[r]
    if total != TruncSeries(Q, T, [1, -1][:T + 1]):
        return False, {"counterexample": "1 - x != sum of lg_r"}
    return True, {"pairs": (nmax + 1) ** 2}


def suite_adams(T: int, seed: int) -> tuple[bool, dict]:
    trials = []
    for k in range(-3, 8):
        comp = Composer(adams_series(k, T))
        for m in range(-3, 8):
            got = comp.compose(adams_series(m, T))
            if got != adams_series(k * m, T):
                return False, {"counterexample": f"A_{k} o A_{m}"}
            trials.append([k, m, got.coeffs])
    for m in range(-3, 8):
        w = b_map(adams_series(m, T), T)
        if any(w[i] != m**i for i in range(T + 1)):
            return False, {"counterexample": f"b(A_{m})"}
        trials.append([m, w.values])
    return True, {"range": "-3..7", "digest": _digest(trials)}


def suite_aformula(T: int, seed: int) -> tuple[bool, dict]:
    from .multisym import aformula_check, iter_partial
    rng = random.Random(seed)
    trials = []
    for trial in range(10):
        n = rng.randint(1, 3)
        G = TruncSeries(
            Q,
            T,
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(T + 1)],
        )
        if not aformula_check(G, n):
            return False, {"counterexample": {"trial": trial, "n": n, "G": G.to_json()}}
        # partial^n G: the side aformula_check compared with the formula
        trials.append([n, G.coeffs, sorted(iter_partial(G, n).coeffs.items())])
    return True, {"count": 10, "digest": _digest(trials)}


def suite_integration(T: int, seed: int) -> tuple[bool, dict]:
    from .multisym import integrate_symmetric, iter_partial
    rng = random.Random(seed)
    trials = []
    for trial in range(6):
        n = rng.randint(2, 4)
        L = TruncSeries(
            Q, T, [0] + [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(T)]
        )
        D = iter_partial(L, n - 1)
        L2 = integrate_symmetric(D)
        if iter_partial(L2, n - 1) != D:
            return False, {"counterexample": {"trial": trial, "n": n}}
        trials.append([n, L.coeffs, L2.coeffs, sorted(D.coeffs.items())])
    return True, {"count": 6, "digest": _digest(trials)}


def random_membership_witness(rng, T: int, n: int):
    """Random element of the dual-route agreement domain: an integer series
    plus a rational combination of the lg_r kernel elements (r < n), plus,
    half the time, a Phi-inverted non-integral bomb that both routes must
    reject.  Returns (series, expected_member)."""
    G = TruncSeries(Q, T, [0] + [rng.randint(-6, 6) for _ in range(T)])
    for r in range(1, n):
        if rng.random() < 0.6:
            q = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            G = G + lg_series(r, T).scale(q)
    bomb = rng.random() < 0.5
    if bomb:
        j = rng.randint(1, max(1, T - n - 3))
        target = TruncSeries.monomial(Q, T, j, Fraction(rng.choice([1, 3, 5]), 2))
        B = target
        for _ in range(n):
            B = phi_inverse(B)
        G = G + B.truncate(T)
    return G, not bomb


def phi_inverse(F: TruncSeries) -> TruncSeries:
    """Some H with Phi(H) = F modulo the truncation (constant term 0)."""
    T = F.trunc
    h = [Fraction(0)] * (T + 2)
    h[1] = -Fraction(F.coeffs[0])
    for j in range(1, T + 1):
        h[j + 1] = (j * h[j] - F.coeffs[j]) / (j + 1)
    return TruncSeries(Q, T + 1, h)


def suite_ifandonlyif(T: int, seed: int) -> tuple[bool, dict]:
    from .classify import in_Opnm_phi, in_Qnm
    if T < 1:  # both routes need n <= T, and n >= 1
        raise ValueError(f"ifandonlyif needs --trunc >= 1, got {T}")
    rng = random.Random(seed)
    trials = []
    for trial in range(20):
        n = rng.randint(1, min(3, T))
        m = rng.randint(n, n + 2)
        G, _expect = random_membership_witness(rng, T, n)
        a = in_Qnm(G, n, m)
        b = in_Opnm_phi(G, n, m)
        if a != b:
            return False, {"counterexample": {"trial": trial, "n": n, "m": m, "G": G.to_json()}}
        trials.append([n, m, G.coeffs, a])
    return True, {"count": 20, "digest": _digest(trials)}


def suite_s_dual_route(T: int, seed: int) -> tuple[bool, dict]:
    from .stable import s_criterion, s_oracle
    rng = random.Random(seed)
    trials = []
    for trial in range(40):
        p = rng.choice([2, 3, 5])
        e = rng.randint(1, 3)
        G = _random_unit_adams_combo(rng, T, _BUDGET)
        if rng.random() < 0.5:
            k = rng.randint(0, T)
            bump = [0] * (T + 1)
            bump[k] = rng.randint(1, p**e - 1)
            G = G + TruncSeries(G.ring, T, [G.ring.coerce(c) for c in bump])
        crit = s_criterion(G, primes=[p])
        want = _criterion_capped(crit, e)
        got = s_oracle(G, p, e, T)
        if want != got:
            return False, {
                "counterexample": {"trial": trial, "p": p, "e": e, "series": G.to_json()}
            }
        trials.append([p, e, G.to_json()["coeffs"], got])
    return True, {"count": 40, "digest": _digest(trials)}


def _criterion_capped(report, e: int) -> bool:
    if report.ok:
        return True
    p, n, m, j = report.witness
    return n > e  # violations only beyond the tested exponent don't count


def _random_unit_adams_combo(rng, T, budget: PrimeBudget) -> TruncSeries:
    ring = ProfiniteRing(budget)
    out = TruncSeries.zero(ring, T)
    M = budget.modulus
    for _ in range(rng.randint(1, 3)):
        r = rng.randrange(1, 2 * M)
        while any(r % p == 0 for p in budget.primes):
            r += 1
        c = rng.randrange(0, M)
        out = out + adams_series(r, T).map_coeffs(
            lambda v: ProfiniteApprox.from_int(budget, c) * v, ring
        )
    return out


def suite_kgr_duality(T: int, seed: int) -> tuple[bool, dict]:
    from .kgr import NumericalPoly, pair, to_e_basis
    rng = random.Random(seed)
    if to_e_basis([Fraction(1, 2)]) is not None:
        return False, {"counterexample": "s/2 accepted as numerical"}
    trials = []
    for trial in range(30):
        deg = rng.randint(0, min(8, T))  # pair needs deg f <= T
        f = NumericalPoly(tuple(rng.randint(-5, 5) for _ in range(deg + 1)))
        m = rng.randint(-10, 10)
        value = pair(f, adams_series(m, T))
        if value != f(m):
            return False, {"counterexample": {"trial": trial, "m": m, "f": f.e_coeffs}}
        trials.append([f.e_coeffs, m, value])
    return True, {"count": 30, "digest": _digest(trials)}


def suite_basis(T: int, seed: int) -> tuple[bool, dict]:
    from .stable import construct_Fn, dn, s_criterion
    top = min(3, T)  # F_n needs its leading term d_n x^n inside the truncation
    for n in range(top + 1):
        F = construct_Fn(n, T, _BUDGET)
        if F.int_coeffs[n] != dn(n).value or any(F.int_coeffs[i] for i in range(n)):
            return False, {"counterexample": f"F_{n} leading term"}
        if not s_criterion(F.series).ok:
            return False, {"counterexample": f"F_{n} fails the criterion"}
    return True, {"range": f"0..{top}"}


SUITES = {
    "idempotents": suite_idempotents,
    "adams": suite_adams,
    "aformula": suite_aformula,
    "integration": suite_integration,
    "ifandonlyif": suite_ifandonlyif,
    "s-dual-route": suite_s_dual_route,
    "kgr-duality": suite_kgr_duality,
    "basis": suite_basis,
}
