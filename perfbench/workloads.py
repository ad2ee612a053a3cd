"""Seeded inputs, operations and known answers for the four ckops workloads.

Every workload is a closed loop with one client: the harness sends the next
operation only after the previous verdict has returned.  A workload is a
fixed *round* of operations whose kinds and sizes do not depend on the seed;
the seed only draws the coefficients, indices and exponents inside it.  So a
second seed changes the inputs but not the op-kind mix, and the cost of a
round barely moves between seeds.

The generators here are the benchmark's own (nothing is imported from
``ckops.suites``), so a change to the library's test-suite helpers cannot
change what the benchmark measures.  Each operation carries a check against
a known answer that the route under test does not compute; README.md lists
which oracle guards which operation.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from ckops.arith import PrimeBudget, ProfiniteApprox
from ckops.classify import in_Opnm_phi, in_Qnm
from ckops.kgr import assemble_TZ, decompose_TZ
from ckops.series import (
    Composer,
    ProfiniteRing,
    Q,
    TruncSeries,
    Z,
    adams_series,
    b_map,
    lg_decompose,
    lg_series,
)
from ckops.stable import construct_Fn, decompose_S0, s_criterion, s_oracle, tower_member

WORKLOADS = ("membership", "stable_basis", "composition", "cli")
OP_KINDS = (
    "in_Qnm", "in_Opnm_phi",
    "construct_Fn", "s_criterion", "tower_member", "decompose_S0", "assemble_TZ", "decompose_TZ",
    "Composer.Q", "compose.Q", "b_map.Q", "lg_decompose",
    "Composer.profinite", "compose.profinite", "b_map.profinite",
    "cli.check", "cli.basis", "cli.verify", "cli.dn", "cli.malformed",
)

# d_0..d_16, the leading coefficients of the topological basis F_n (the
# values the acceptance and CLI tests pin).  Pinned here so that no check
# reads them back from ckops.stable.dn.
D_N = (
    1, 2, 12, 8, 240, 96, 4032, 1152, 34560, 7680, 101376, 18432,
    50319360, 7741440, 6635520, 884736, 451215360,
)

# Input rounds generated at set-up; the measured loop cycles through them.
POOL_ROUNDS = 6

STABLE_BUDGET = PrimeBudget.uniform((2, 3, 5, 7), 8)
# A_k o A_m needs r mod 2^(e + v_2(12!)) = 2^(e + 10); precision 8 raises
# PrecisionError at p = 2, so the profinite half runs at precision 12.
COMPOSITION_BUDGET = PrimeBudget.uniform((2, 3, 5, 7), 12)
BUDGET_PRIMES = (2, 3, 5, 7)
SLOT_PRIMES = (2, 3, 5)
UNITS = tuple(k for k in range(-60, 200) if math.gcd(k, 210) == 1)


@dataclass
class Op:
    """One call into ckops: ``fn(*args())`` is timed, ``check`` is not.

    ``check`` returns True when the result matches the known answer.  A CLI
    op has ``fn`` None and ``args()`` giving the argv; its result is
    ``(exit_code, stdout, stderr)``.  ``known_defect``
    names a reproduced library defect that this op may hit; such a failure
    still counts as failed but does not fail the run's correctness gate.
    """

    kind: str
    fn: Callable
    args: Callable[[], tuple]
    check: Callable[[Any], bool]
    known_defect: str | None = None


# ---------------------------------------------------------------------------
# membership: in_Qnm (derivative route) and in_Opnm_phi (Phi route)

MEMBERSHIP_GRID = tuple(
    (T, n, m) for T in (10, 12) for n in range(1, 5) for m in range(n, n + 3)
)


def phi_inverse(F: TruncSeries) -> TruncSeries:
    """Some H with Phi(H) = F modulo the truncation (constant term 0)."""
    T = F.trunc
    h = [Fraction(0)] * (T + 2)
    h[1] = -Fraction(F.coeffs[0])
    for j in range(1, T + 1):
        h[j + 1] = (j * h[j] - F.coeffs[j]) / (j + 1)
    return TruncSeries(Q, T + 1, h)


def membership_series(rng: random.Random, T: int, n: int, bomb: bool) -> TruncSeries:
    """An integer series plus a rational combination of lg_r (r < n): a
    member of Q_n.  With ``bomb`` it also carries B with Phi^n(B) = c x^j,
    c a half-integer, which no element of Q_n has."""
    G = TruncSeries(Q, T, [0] + [rng.randint(-6, 6) for _ in range(T)])
    for r in range(1, n):
        if rng.random() < 0.6:
            q = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            G = G + lg_series(r, T).scale(q)
    if bomb:
        j = rng.randint(1, max(1, T - n - 3))
        B = TruncSeries.monomial(Q, T, j, Fraction(rng.choice([1, 3, 5]), 2))
        for _ in range(n):
            B = phi_inverse(B)
        G = G + B.truncate(T)
    return G


def has_bomb(T: int, n: int) -> bool:
    """Half the grid carries a bomb: n even at T = 12, n odd at T = 10.

    The split is fixed, not seeded, because in_Qnm costs twice as much on a
    member (iter_partial runs twice).  This way the six n = 4 in_Qnm calls
    of a round, members at T = 10 and non-members at T = 12, cost about the
    same, and they hold the top eighth of the ranks, around the 90th
    percentile.
    """
    return (T == 12) == (n % 2 == 0)


def membership_inputs(rng: random.Random) -> list:
    return [
        (T, n, m, has_bomb(T, n), membership_series(rng, T, n, has_bomb(T, n)))
        for T, n, m in MEMBERSHIP_GRID
    ]


def membership_plan(inputs) -> list[Op]:
    ops = []
    for _T, n, m, bomb, G in inputs:
        # Known answer: a bomb is outside Q_n, hence outside every Q_{n,m};
        # at m = n a bomb-free input is a member by construction; for m > n
        # each route must agree with the other.  The Phi route runs first,
        # so a disagreement counts once, against in_Qnm.
        verdicts = []

        def known(v, bomb=bomb, at_n=m == n, verdicts=verdicts):
            verdicts.append(v)
            if bomb:
                return v is False
            if at_n:
                return v is True
            return isinstance(v, bool) and v is verdicts[0]

        args = lambda G=G, n=n, m=m: (G, n, m)
        ops.append(Op("in_Opnm_phi", in_Opnm_phi, args, known))
        ops.append(Op("in_Qnm", in_Qnm, args, known))
    return ops


# ---------------------------------------------------------------------------
# stable_basis: construct_Fn, s_criterion, tower_member, decompose_S0, fseq


def _unit(rng: random.Random, modulus: int) -> int:
    r = rng.randrange(1, 2 * modulus)
    while any(r % p == 0 for p in BUDGET_PRIMES):
        r += 1
    return r


def unit_adams_combo(rng: random.Random, T: int, budget: PrimeBudget, terms: int) -> TruncSeries:
    """sum_i c_i A_(r_i) over Zhat with r_i units at every budget prime."""
    ring = ProfiniteRing(budget)
    out = TruncSeries.zero(ring, T)
    M = budget.modulus
    for _ in range(terms):
        r = _unit(rng, M)
        c = ProfiniteApprox.from_int(budget, rng.randrange(0, M))
        out = out + adams_series(r, T).map_coeffs(lambda v, c=c: c * v, ring)
    return out


def _criterion_capped(report, e: int) -> bool:
    """The criterion's verdict restricted to exponents <= e, which is what
    s_oracle(., p, e) decides."""
    if report.ok:
        return True
    return report.witness[1] > e


def stable_inputs(rng: random.Random) -> dict:
    B = STABLE_BUDGET
    ring = ProfiniteRing(B)
    per_T = {}
    for T in (12, 16):
        # The prime of each s_criterion op is fixed by its slot, not drawn:
        # the criterion at p = 2 costs up to 30 times more than at p = 5,
        # so a drawn prime would make the cost of a round depend on the seed.
        fn_pe = [(SLOT_PRIMES[(n + T) % 3], rng.randint(1, 3)) for n in range(2, 7)]
        combos = []
        for i in range(4):
            p, e = SLOT_PRIMES[(i + T) % 3], rng.randint(1, 3)
            G = unit_adams_combo(rng, T, B, 2)
            if i % 2:
                bump = [0] * (T + 1)
                bump[rng.randint(0, T)] = rng.randint(1, p**e - 1)
                G = G + TruncSeries(ring, T, bump)
            combos.append((p, e, G))
        s0 = [[rng.randint(-3, 3) for _ in range(7)] for _ in range(2)]
        tz = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(6)]
        low = [construct_Fn(n, T, B) for n in (0, 1)]  # closed forms A_1, A_-1 - A_1
        per_T[T] = {"fn_pe": fn_pe, "combos": combos, "s0": s0, "tz": tz, "low": low}
    towers = []
    # j <= 5: at j = 6, 7 the library passes d_j/2 x^j at level j+1 (p = 2),
    # against its own docstring; README.md lists this open discrepancy.
    for j in range(1, 6):
        d = D_N[j]
        if j % 2:
            mult = rng.randint(1, 9)
        else:
            p = next(p for p in BUDGET_PRIMES if d % p == 0)
            mult = Fraction(rng.choice([u for u in range(1, 40) if u % p]), p)
        value = int(d * mult)
        G = TruncSeries(ring, j, [0] * j + [value])
        towers.append((j, value, G))
    return {"per_T": per_T, "towers": towers}


def _is_basis_element(F, n: int) -> bool:
    ints = F.int_coeffs
    return ints[n] == D_N[n] and not any(ints[:n])


def stable_plan(inputs) -> list[Op]:
    B = STABLE_BUDGET
    ops = []
    for T, data in inputs["per_T"].items():
        family = {0: data["low"][0], 1: data["low"][1]}
        for n, (p, e) in zip(range(2, 7), data["fn_pe"]):

            def keep(F, n=n, family=family):
                family[n] = F
                return _is_basis_element(F, n)

            ops.append(Op("construct_Fn", construct_Fn, lambda n=n, T=T: (n, T, B), keep))
            # F_n is in the stable set by construction, and the lattice
            # route must agree at the slot's prime p and the drawn exponent e.
            ops.append(
                Op(
                    "s_criterion",
                    lambda G, p: s_criterion(G, primes=[p]),
                    lambda n=n, p=p, family=family: (family[n].series, p),
                    lambda rep, n=n, p=p, e=e, T=T, family=family: rep.ok
                    and _criterion_capped(rep, e) == s_oracle(family[n].series, p, e, T),
                )
            )
        for p, e, G in data["combos"]:
            ops.append(
                Op(
                    "s_criterion",
                    lambda G, p: s_criterion(G, primes=[p]),
                    lambda G=G, p=p: (G, p),
                    lambda rep, G=G, p=p, e=e, T=T: _criterion_capped(rep, e)
                    == s_oracle(G, p, e, T),
                )
            )
        for coords in data["s0"]:

            def s0_args(coords=coords, T=T, family=family):
                ints = [0] * (T + 1)
                for n, c in enumerate(coords):
                    for i, v in enumerate(family[n].int_coeffs[: T + 1]):
                        ints[i] += c * v
                return TruncSeries(Z, T, ints), B, [family[n] for n in range(7)]

            want = list(coords) + [0] * (T + 1 - len(coords))
            ops.append(Op("decompose_S0", decompose_S0, s0_args, lambda got, want=want: got == want))
        bs = data["tz"]
        window = {}

        def keep_window(a, window=window):
            window["a"] = a
            return a.start == -2 and len(a.values) == 6

        ops.append(Op("assemble_TZ", assemble_TZ, lambda bs=bs, T=T: (bs, -2, 3, T, B), keep_window))
        ops.append(
            Op(
                "decompose_TZ",
                decompose_TZ,
                lambda T=T, window=window: (window["a"], 2, T, B),
                lambda got, bs=bs: got == bs,
            )
        )
    for j, value, G in inputs["towers"]:
        # criterion 8 of the acceptance suite: d x^j passes level j+1 iff d_j | d
        ops.append(
            Op(
                "tower_member",
                tower_member,
                lambda G=G, j=j: (G, j + 1, B),
                lambda v, j=j, value=value: v is (value % D_N[j] == 0),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# composition: the composition ring over Q and over Zhat

COMPOSER_SLOTS_Q = ((12, 2), (12, 5), (16, 3), (16, 6))  # (T, n) of lg_n
PROFINITE_T = 12


def composition_inputs(rng: random.Random) -> dict:
    q_slots = []
    for T, n in COMPOSER_SLOTS_Q:
        other = rng.choice([m for m in range(1, 9) if m != n])
        coords = [Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(T + 1)]
        dense = TruncSeries.zero(Q, T)
        for i, c in enumerate(coords):
            dense = dense + lg_series(i, T).scale(c)
        q_slots.append((T, n, other, coords, dense))
    B = COMPOSITION_BUDGET
    p_slots = []
    for _ in range(2):
        k = rng.choice([u for u in UNITS if u > 1])
        ms = [rng.choice([u for u in UNITS if u > 0]) for _ in range(2)]
        adams = {
            r: adams_series(ProfiniteApprox.from_int(B, r), PROFINITE_T) for r in [k] + ms
        }
        p_slots.append((k, ms, adams))
    return {"q": q_slots, "profinite": p_slots}


def _residues_match(series_or_values, want: Callable[[int], int]) -> bool:
    """Every stored residue of a profinite vector equals the exact integer
    want(i) reduced to the stored precision, and no digit is lost entirely."""
    for i, c in enumerate(series_or_values):
        for p in c.budget.primes:
            k = c.prec[p]
            if k < 1 or c.residue[p] != want(i) % p**k:
                return False
    return True


def composition_plan(inputs) -> list[Op]:
    ops = []
    for T, n, other, coords, dense in inputs["q"]:
        holder = {}
        lg_n = lg_series(n, T)

        def keep(C, holder=holder):
            holder["C"] = C
            return isinstance(C, Composer)

        ops.append(Op("Composer.Q", Composer, lambda lg_n=lg_n: (lg_n,), keep))
        # lg_n o lg_m = delta_nm lg_n, and composition is linear in the
        # right factor, so lg_n o (sum c_i lg_i) = c_n lg_n.
        for right, want in (
            (lg_series(n, T), lg_n),
            (lg_series(other, T), TruncSeries.zero(Q, T)),
            (dense, lg_n.scale(coords[n])),
        ):
            ops.append(
                Op(
                    "compose.Q",
                    lambda C, H: C.compose(H),
                    lambda right=right, holder=holder: (holder["C"], right),
                    lambda got, want=want: got == want,
                )
            )
        ops.append(
            Op("b_map.Q", b_map, lambda dense=dense, T=T: (dense, T),
               lambda w, coords=coords: list(w.values) == coords)
        )
        ops.append(
            Op("lg_decompose", lg_decompose, lambda dense=dense: (dense,),
               lambda w, coords=coords: list(w.values) == coords)
        )
    for k, ms, adams in inputs["profinite"]:
        holder = {}

        def keep(C, holder=holder):
            holder["C"] = C
            return isinstance(C, Composer)

        ops.append(Op("Composer.profinite", Composer, lambda A=adams[k]: (A,), keep))
        for m in ms:
            # A_k o A_m = A_km, compared with the exact binomials of k*m
            ops.append(
                Op(
                    "compose.profinite",
                    lambda C, H: C.compose(H),
                    lambda A=adams[m], holder=holder: (holder["C"], A),
                    lambda got, km=k * m: _residues_match(
                        got.coeffs, lambda i: (-1) ** i * math.comb(km, i)
                    ),
                )
            )
            # b(A_m)_i = m^i
            ops.append(
                Op(
                    "b_map.profinite",
                    b_map,
                    lambda A=adams[m]: (A, PROFINITE_T),
                    lambda w, m=m: _residues_match(w.values, lambda i: m**i),
                )
            )
    return ops


# ---------------------------------------------------------------------------
# cli: one fresh `python -m ckops.cli` process per op

# Reproduced library defects that the cli workload keeps visible.  The
# correct answer for these inputs is exit 2 with one JSON line; today each
# exits 1 with a traceback whose last line starts with the given text.
KNOWN_DEFECTS = {
    "cli_zero_denominator": "ZeroDivisionError",
    "cli_budget_outside_primes": "KeyError: 3",
}


def _json_line(out: str):
    lines = out.splitlines()
    if len(lines) != 1:
        return None
    try:
        return json.loads(lines[0])
    except ValueError:
        return None


def _expect_verdict(code: int, member: bool):
    def check(res):
        got_code, out, _err = res
        payload = _json_line(out)
        return got_code == code and isinstance(payload, dict) and payload.get("member") is member

    return check


def _expect_error(res) -> bool:
    code, out, _err = res
    payload = _json_line(out)
    return code == 2 and isinstance(payload, dict) and "error" in payload


def _write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
    return str(path)


def cli_inputs(rng: random.Random, workdir: Path, index: int) -> dict:
    """Write one round's input files under workdir; return their paths and
    the tower level the tower inputs are checked at."""
    d = workdir / f"round{index}"
    d.mkdir(parents=True, exist_ok=True)
    files = {}
    files["member"] = _write(d / "member.json", membership_series(rng, 8, 2, False).to_json())
    files["bomb"] = _write(d / "bomb.json", membership_series(rng, 8, 2, True).to_json())
    G = TruncSeries.zero(Z, 10)
    for _ in range(2):
        G = G + adams_series(rng.choice(UNITS), 10).scale(rng.randint(-4, 4) or 1)
    files["stable"] = _write(d / "stable.json", G.to_json())
    # adding x changes a_0 + a_1 by one, breaking the p = 2, m = 2 congruence
    files["unstable"] = _write(d / "unstable.json", (G + TruncSeries(Z, 10, [0, 1])).to_json())
    j = rng.randint(1, 4)
    mult = rng.randint(1, 5)
    files["tower_in"] = _write(d / "tower_in.json", TruncSeries(Z, j, [0] * j + [D_N[j] * mult]).to_json())
    files["tower_out"] = _write(
        d / "tower_out.json", TruncSeries(Z, j, [0] * j + [D_N[j] * mult + 1]).to_json()
    )
    files["garbled"] = _write(d / "garbled.json", "{not json " + str(rng.randint(0, 10**6)))
    files["short"] = _write(
        d / "short.json", TruncSeries(Z, 2, [0, rng.randint(1, 9), rng.randint(1, 9)]).to_json()
    )
    coeffs = [f"{rng.randint(-5, 5)}/{rng.randint(1, 5)}" for _ in range(7)]
    coeffs[rng.randint(1, 6)] = f"{rng.randint(1, 9)}/0"
    files["zero_den"] = _write(d / "zero_den.json", {"ring": "Q", "trunc": 6, "coeffs": coeffs})
    # An odd Adams series passes every p = 2 instance, so the checks reach
    # p = 3, which the [[2,4]] budget does not carry.
    small = ProfiniteRing(PrimeBudget.uniform([2], 4))
    prof = adams_series(rng.choice(UNITS), 4).map_coeffs(small.coerce, small)
    files["small_budget"] = _write(d / "small_budget.json", prof.to_json())
    return {"files": files, "tower_level": j + 1}


def cli_plan(inputs) -> list[Op]:
    f = inputs["files"]
    level = str(inputs["tower_level"])
    ops = []

    def check(name, test, code, member, *extra):
        argv = ["check", "--input", f[name], "--test", test, *extra]
        ops.append(Op("cli.check", None, lambda argv=argv: argv, _expect_verdict(code, member)))

    for test in ("qn", "qnm", "opnm"):
        check("member", test, 0, True, "--n", "2", "--m", "2")
        check("bomb", test, 1, False, "--n", "2", "--m", "2")
    check("stable", "s", 0, True)
    check("unstable", "s", 1, False)
    check("tower_in", "tower", 0, True, "--n", level)
    check("tower_out", "tower", 1, False, "--n", level)

    def basis_ok(n):
        def ok(res):
            code, out, _err = res
            payload = _json_line(out)
            return code == 0 and isinstance(payload, dict) and payload.get("int_coeffs", [None] * (n + 1))[: n + 1] == [0] * n + [D_N[n]]

        return ok

    for n, T in ((3, 8), (4, 10)):
        argv = ["basis", "--n", str(n), "--trunc", str(T)]
        ops.append(Op("cli.basis", None, lambda argv=argv: argv, basis_ok(n)))
    for suite in ("adams", "idempotents"):
        argv = ["verify", suite, "--trunc", "6"]
        ops.append(
            Op("cli.verify", None, lambda argv=argv: argv,
               lambda res: res[0] == 0 and (_json_line(res[1]) or {}).get("ok") is True)
        )
    ops.append(
        Op("cli.dn", None, lambda: ["dn", "--max", "7"],
           lambda res: res[0] == 0 and [r.get("d_n") for r in _json_line(res[1]) or []] == list(D_N[:8]))
    )
    malformed = [
        (["check", "--input", f["garbled"], "--test", "s"], None),
        (["check", "--input", f["short"], "--test", "opnm", "--n", "5", "--m", "5"], None),
        (["verify", "nosuch"], None),
        (["check", "--input", f["zero_den"], "--test", "qn"], "cli_zero_denominator"),
        (["check", "--input", f["small_budget"], "--test", "s"], "cli_budget_outside_primes"),
        (["check", "--input", f["small_budget"], "--test", "tower", "--n", "1"], "cli_budget_outside_primes"),
    ]
    for argv, defect in malformed:
        ops.append(Op("cli.malformed", None, lambda argv=argv: argv, _expect_error, defect))
    return ops


# ---------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, workdir: Path) -> list:
    """POOL_ROUNDS rounds of inputs drawn from ``seed``; cli writes files."""
    rng = random.Random(f"ckops-perfbench/{workload}/{seed}")
    if workload == "membership":
        return [membership_inputs(rng) for _ in range(POOL_ROUNDS)]
    if workload == "stable_basis":
        return [stable_inputs(rng) for _ in range(POOL_ROUNDS)]
    if workload == "composition":
        return [composition_inputs(rng) for _ in range(POOL_ROUNDS)]
    if workload == "cli":
        return [cli_inputs(rng, workdir, i) for i in range(POOL_ROUNDS)]
    raise ValueError(f"unknown workload {workload!r}")


PLANS = {
    "membership": membership_plan,
    "stable_basis": stable_plan,
    "composition": composition_plan,
    "cli": cli_plan,
}


def plan(workload: str, pool: list, round_index: int) -> list[Op]:
    """The ops of one round, built fresh so per-round state starts empty."""
    return PLANS[workload](pool[round_index % len(pool)])
