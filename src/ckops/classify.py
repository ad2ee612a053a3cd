"""Membership and decomposition for the integrality-filtered series groups:
the partial-derivative route, the Phi route, the profinite-component
decomposition, and the integer-sequence machinery that realizes profinite
components inside rational series.

Series over Q are handled exactly (integrality means denominator 1);
profinite series carry their own budget.  "Profinite-rational" inputs are
supported as the union of those two pure forms.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import (
    IncompatibleCongruences,
    PrecisionError,
    PrimeBudget,
    ProfiniteApprox,
    Struct,
    compatible_lift,
    crt_lift,
    largest_prime_power,
    rational_mod,
    rational_reconstruct,
    set_primes_upto,
    vp,
    vp_fraction,
)
from .multisym import iter_partial
from .series import (
    ProfiniteRing,
    RationalRing,
    TruncSeries,
    Z,
    chain_sum,
    chain_weights,
    lg_series,
    phi,
    valuation,
    weighted_lg,
)


class NotInGroup(ValueError):
    """The series fails a stated membership precondition."""


def in_Qn(G: TruncSeries, n: int) -> bool:
    """True iff partial^(n-1) G has integral coefficients up to the
    truncation's total degree: in_Qnm with m = 0.  For n >= 1 the input
    must lie in x K[[x]]."""
    return in_Qnm(G, n, 0)


def _numerators(G: TruncSeries) -> tuple[int, TruncSeries]:
    """(L, L*G over Z) for G over Q, L the lcm of G's denominators, and
    (1, G) over Z and Zhat: both membership routes apply a Z-linear map
    with integer coefficients, whose image of G is integral iff L divides
    every coefficient of its image of L*G, with the same valuation."""
    if not isinstance(G.ring, RationalRing):
        return 1, G
    L = math.lcm(*[c.denominator for c in G.coeffs])
    return L, TruncSeries._trusted(Z, G.trunc, [c.numerator * (L // c.denominator) for c in G.coeffs])


def in_Qnm(G: TruncSeries, n: int, m: int) -> bool:
    """Membership plus the valuation condition v(partial^(n-1) G) >= m;
    for n < 1, G itself is integral with v(G) >= m.  For n >= 1 at a
    truncation below n, partial^(n-1) G has no monomial within the
    truncation, so nothing could be checked: PrecisionError, as in
    in_Opnm_phi.

    The derivative route, straight from the definition, decided on L*G's
    integer numerators (``_numerators``).  The Phi route in_Opnm_phi tests
    a group that contains this one at every truncation, over Q and Z, not
    the same group.  For 0 <= d <= T - n,
        [x^d] Phi^n G = (-1)^n ((d+1) c(1,...,1,d+1) - d c(1,...,1,d)),
    with c(k) = [x^k] partial^(n-1) G and n - 1 ones: in Adams coordinates
    b_j, [x^d] Phi^n G = (-1)^d sum_j b_j j^n C(j,d) and c(k) =
    (-1)^|k| sum_j b_j prod_i C(j,k_i), and j C(j,d) = (d+1) C(j,d+1) +
    d C(j,d).  So L divides every Phi^n coefficient of L*G if it divides
    every derivative coefficient, and v(partial^(n-1) G) >= m gives
    v(Phi^n G) >= m - n: in_Qnm True implies in_Opnm_phi True.  The
    converse fails (x^4/8 at T = 4, n = 3, m = 1; x^2/2 at T = 3,
    n = m = 1).  The two agree on every draw from the ``ifandonlyif``
    suite's domain: integer series plus lg_r (r < n) plus Phi-inverted
    non-integral terms."""
    L, N = _numerators(G)
    if n < 1:
        v = valuation(N)
        return L == 1 and (v is None or v >= m)
    if not G.ring.is_zero(G.coeffs[0], 0):
        raise NotInGroup("membership for n >= 1 needs a zero constant term")
    if G.trunc < n:
        raise PrecisionError(f"need truncation >= {n}, have {G.trunc}")
    D = iter_partial(N, n - 1)
    if L > 1 and math.gcd(L, *D.coeffs.values()) < L:  # L divides them all iff it is their gcd with L
        return False
    v = D.total_valuation()
    return v is None or v >= m


def in_Opnm_phi(G: TruncSeries, n: int, m: int) -> bool:
    """The Phi-route test: Phi^n(G) integral with valuation >= m - n.

    Univariate, and valid over profinite coefficients.  Its group
    contains in_Qnm's (the derivative route, from the definition of
    Q^{n,m}) at every truncation, over Q and Z: each [x^d] Phi^n G is an
    integer combination of two coefficients of partial^(n-1) G (the
    identity in in_Qnm's docstring), so an in_Qnm member passes here.  It
    can be larger: x^4/8 at T = 4, n = 3, m = 1 and x^2/2 at T = 3,
    n = m = 1 pass here and fail in_Qnm (cross-checked in the tests; the
    ``ifandonlyif`` suite checks agreement on its own domain).

    Over Q it decides on L*G's integer numerators, as the derivative route
    does: Phi^n is Z-linear with an integer band (``_numerators``)."""
    if n < 1:
        raise ValueError("the Phi route applies to n >= 1")
    if G.trunc < n:
        raise PrecisionError(f"need truncation >= {n}, have {G.trunc}")
    if isinstance(G.ring, ProfiniteRing):  # name an unknown input degree, not one of Phi^n(G)
        for i, c in enumerate(G.coeffs[1:], 1):  # Phi^n never reads a_0
            G.ring.is_zero(c, i)
    L, N = _numerators(G)
    H = phi(N, n)
    if L > 1 and math.gcd(L, *H.coeffs) < L:
        return False
    v = valuation(H)
    return v is None or v >= m - n


class Component(Struct):
    """One profinite component of a decomposition, known only modulo an
    explicit determination modulus (a divisor of lcm(1..T) per prime):
    ``residues`` maps prime -> (exponent, residue), and ``candidate`` is the
    representative used for the subtraction."""

    __slots__ = ("index", "residues", "modulus", "candidate")


def _component_step(cur: TruncSeries, r: int) -> tuple[int, dict]:
    """The lg_1 congruence data of component r of cur: Phi^(r-1) costs r-1
    degrees, leaving the window T-r+1, and the component c satisfies
    c = b_i (mod i) with b_i = -i [x^i] Phi^(r-1)(cur) for i in the window.
    Returns (window, {i: b_i})."""
    window = cur.trunc - (r - 1)
    if window < 1:
        raise PrecisionError(f"truncation {cur.trunc} too small for component {r}")
    return window, {i: -(c * i) for i, c in enumerate(phi(cur, r - 1).coeffs) if i}


def decompose_Qn_hat(G: TruncSeries, n: int, budget: PrimeBudget | None = None):
    """Split G into profinite lg-components c_1..c_(n-1) and a remainder
    with budget-integral coefficients: G = sum c_r lg_r + remainder.

    Components are extracted top-down: apply Phi^(r-1), read the lg_1
    component through the congruences c = -i a_i (mod i), subtract the
    integer representative, recurse.  Each component carries the modulus
    it is determined to; the remainder reassembles G exactly.  A Zhat input
    has zero components and is its own remainder (each b_i is i times a
    profinite value, so 0 mod i, or else lacks digits: PrecisionError).
    """
    if isinstance(G.ring, ProfiniteRing):
        budget = G.ring.budget
    if budget is None:
        raise ValueError("a prime budget is required for rational input")
    if n < 1:
        raise ValueError("n must be >= 1")
    cur = G
    components = []
    ring = ProfiniteRing(budget)
    for r in range(n - 1, 0, -1):
        window, bvals = _component_step(cur, r)
        try:
            fam = {i: ring.coerce(b) for i, b in bvals.items()}
            # validates congruence compatibility; lifts over the budget primes only
            t = compatible_lift(fam, window, primes=budget.primes)
        except (IncompatibleCongruences, ValueError) as exc:
            raise NotInGroup(f"component {r}: {exc}") from None
        powers = {p: largest_prime_power(p, window, budget.exponent(p))
                  for p in set_primes_upto(window) if p in budget.full_prec}
        residues = {p: (k, t % q) for p, (k, q) in powers.items()}
        modulus = math.prod(q for _, q in powers.values())
        components.append(Component(r, residues, modulus, Fraction(t)))
        if t:  # only for rational input
            cur = cur - lg_series(r, G.trunc).scale(t)
    components.reverse()
    _check_remainder_integral(cur, budget)
    return components, cur


def _check_remainder_integral(rem: TruncSeries, budget: PrimeBudget):
    if isinstance(rem.ring, RationalRing):
        for i, c in enumerate(rem.coeffs):
            c = Fraction(c)
            for p in budget.primes:
                if c.denominator % p == 0:
                    raise NotInGroup(
                        f"remainder coefficient {i} = {c} is not integral at p={p}"
                    )


class ComponentClass(Struct):
    """A component of rho_n reduced modulo Q: either the zero class (some
    small-height rational explains every residue) or a nonzero class with
    a (prime, exponent, residue) witness."""

    __slots__ = ("index", "is_zero", "value", "witness", "residues")


def rho_n(G: TruncSeries, n: int, budget: PrimeBudget) -> list[ComponentClass]:
    """Classes of the lg-components of a rational series modulo Q.

    Finite truncation can never prove a residue family has no rational
    explanation, so the class test is: reconstruct the unique small-height
    rational matching the component residues and verify it against every
    congruence in the window; failure yields the witnessing residue.
    """
    if not isinstance(G.ring, RationalRing):
        raise TypeError("rho_n classifies rational series")
    out = []
    cur = G
    for r in range(n - 1, 0, -1):
        window, bvals = _component_step(cur, r)
        # residues where the rational b allows them; obstructions elsewhere
        residues = {}
        obstructions = {}
        for p in budget.primes:
            k, q = largest_prime_power(p, window)
            if k == 0:
                continue
            val = bvals[q]
            if val.denominator % p:
                residues[p] = (k, rational_mod(val, q))
            else:
                obstructions[p] = vp_fraction(val, p)
        # x is also the integer representative a nonzero class subtracts
        x, M = crt_lift([(a, p**k) for p, (k, a) in residues.items()])
        cand = rational_reconstruct(x, M) if residues else Fraction(0)
        # the reconstruction must also explain every denominator seen
        if cand is not None and any(cand == 0 or vp_fraction(cand, p) != v for p, v in obstructions.items()):
            cand = None
        if cand is None:
            p0 = next(iter(residues), budget.primes[0])
            witness = (p0, *residues[p0]) if residues else (p0, obstructions.get(p0), None)
        else:
            witness = _refuting_congruence(cand, bvals, window, budget)
        if witness is None:
            out.append(ComponentClass(r, True, cand, None, residues))
            cur = cur - lg_series(r, G.trunc).scale(cand)
        else:
            out.append(ComponentClass(r, False, None, witness, residues))
            # subtract an integer representative so deeper components stay readable
            cur = cur - lg_series(r, G.trunc).scale(x)
    out.reverse()
    return out


def _refuting_congruence(cand: Fraction, bvals: dict, window: int, budget: PrimeBudget):
    """The first congruence cand = b_i (mod i), 2 <= i <= window, that fails
    at a budget prime p, as the witness (p, v_p(i), b_i); None if all hold."""
    for i in range(2, window + 1):
        delta = cand - bvals[i]
        for p in budget.primes:
            v = vp(i, p)
            if v and delta != 0 and vp_fraction(delta, p) < v:
                return p, v, str(bvals[i])
    return None


def N33_sequence(c: ProfiniteApprox, r: int, T: int) -> list[int]:
    """Integer sequence c_1..c_T with c_i = c (mod i) such that the weighted
    series (c - c~) lg_k is integral for k = 1..r.

    Built by the inductive repair: c_1 = c (mod r!), then degree by degree
    add multiples of (n+1)(n+2)...(n+k) to c_(n+1) to clear each division.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    budget = c.budget
    rfact = math.factorial(r)
    c1 = _residue_of(c, rfact)
    cs = [c1]
    for n in range(1, T):
        cs.append(_residue_of(c, n + 1))
        for k in range(1, r):
            m = n + k
            if m + 1 > T:  # coefficient beyond truncation: unconstrained
                break
            A = _gk_coeff(c, cs, k + 1, m, T)
            B = _gk_coeff(c, cs, k, m, T)
            num = A * m - B
            # shifting c_(n+1) by sign*t*(n+1)...(n+k) moves num by -t
            t = _residue_of(num, m + 1)
            if t:
                prod = 1
                for j in range(n + 1, n + k + 1):
                    prod *= j
                cs[n] += (-1) ** (k + 1) * t * prod
    # final self-check: every weighted series divides out exactly
    seq = [c - ci for ci in cs]
    for k in range(1, r + 1):
        weighted_lg(seq, k, T)  # raises PrecisionError if non-integral
    return cs


def classical_approx(G: TruncSeries, n: int, d: int) -> TruncSeries:
    """Integer polynomial G' of degree <= d with
    G - G' in sum_r Q lg_r + x^(d+1) Q[[x]].

    Construction: extract each component's congruence data at every prime
    p <= d straight from the rational coefficients (no budget needed over
    Q), pick the integer representative modulo the lg_r-denominator lcm,
    subtract, truncate.  Inputs must be rational with components integral
    at the primes <= d (the integer-sequence generators of the group);
    anything else raises with the blocking coefficient.
    """
    if not isinstance(G.ring, RationalRing):
        raise TypeError("classical_approx expects an exact rational series")
    if d >= G.trunc:
        raise ValueError("need d < truncation")
    cur = G
    # lg_r vanishes mod x^(T+1) for r > T: those components change nothing
    for r in range(min(n - 1, G.trunc), 0, -1):
        window, bvals = _component_step(cur, r)
        lg = lg_series(r, G.trunc)
        # representative must match the component modulo every denominator
        # appearing in lg_r's coefficients up to degree d
        pairs = []
        for p in set_primes_upto(d):
            need = max(
                (-vp_fraction(lg.coeffs[i], p) for i in range(1, d + 1) if lg.coeffs[i] != 0),
                default=0,
            )
            if need <= 0:
                continue
            q = p**need
            if q > window:
                raise PrecisionError(
                    f"component {r} needs c mod {p}^{need}, window {window} "
                    f"only determines {p}^{largest_prime_power(p, window)[0]}"
                )
            val = bvals[q]
            if val.denominator % p == 0:
                raise NotInGroup(
                    f"component {r} has a rational obstruction at p={p}"
                )
            pairs.append((rational_mod(val, q), q))
        cur = cur - lg.scale(crt_lift(pairs)[0])
    out = []
    for i in range(d + 1):
        ci = Fraction(cur.coeffs[i])
        if ci.denominator != 1:
            raise NotInGroup(
                f"truncation coefficient {i} = {ci} is not integral; the "
                "input is outside the supported generator structure"
            )
        out.append(int(ci))
    return TruncSeries(Z, d, out)


def _residue_of(x: ProfiniteApprox, m: int) -> int:
    """x mod m for a profinite x, m factoring inside the budget."""
    pairs = []
    for p in set_primes_upto(m):
        v = vp(m, p)
        if v == 0:
            continue
        if p not in x.budget.primes:
            raise PrecisionError(f"prime {p} of modulus {m} is outside the budget")
        pairs.append((x.residue_mod(p, v), p**v))
    return crt_lift(pairs)[0]


def _gk_coeff(c: ProfiniteApprox, cs: list[int], k: int, m: int, T: int) -> ProfiniteApprox:
    """[x^m] of G_k = (c - c~) lg_k up to the sign convention of the
    weighted series, assembled from the chain weights with a single exact
    division (minimal precision loss).  Only c_1..c_(m-k+1) enter, which
    the construction has already fixed.  Row m of chain_weights(k, T) is
    the same for every T >= m, so N33_sequence reads one table per depth,
    the one its final check reads too."""
    vals = [c - ci for ci in cs[: m - k + 1]]
    return chain_sum(ProfiniteRing(c.budget), vals, chain_weights(k, T)[m]) * ((-1) ** k)
