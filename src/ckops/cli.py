"""Command-line front end: d_n tables, membership checks with certificates,
basis construction, and the identity suites.

Exit codes: 0 member (``check``) or suite passed (``verify``), 1 non-member
or suite failed, 2 any error, reported as one JSON line ``{"error": ...}``;
argparse usage errors exit 2 with argparse's own message.  All output is
deterministic for fixed inputs, seed, and budget.

Each command imports only the modules it calls: check --test qn|qnm|opnm
loads arith, series, multisym and classify; s, basis and dn load arith,
series and stable, and tower loads linalg as well; verify loads suites
and what the suite calls (adams: arith and series only).
"""

from __future__ import annotations

import argparse
import json
import sys


def _budget_from_args(args):
    from .arith import PrimeBudget, is_prime
    primes = []
    for entry in args.primes.split(","):
        try:
            p = int(entry)
        except ValueError:
            raise ValueError(f"--primes entry {entry!r} is not an integer") from None
        if not is_prime(p):
            raise ValueError(f"--primes entry {p} is not a prime")
        if p in primes:
            raise ValueError(f"--primes entry {p} is repeated")
        primes.append(p)
    if args.prec < 1:
        raise ValueError(f"--prec must be >= 1, got {args.prec}")
    return PrimeBudget.uniform(primes, args.prec)


def _check_counts(args) -> None:
    """--n, --m, --trunc and --max count degrees or rows: none is negative."""
    for flag in ("n", "m", "trunc", "max"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise ValueError(f"--{flag} must be >= 0, got {value}")


def _emit(data) -> None:
    sys.stdout.write(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")


def cmd_dn(args) -> int:
    from .stable import dn
    rows = [(n, dn(n)) for n in range(args.max + 1)]
    if args.format == "csv":
        sys.stdout.write("n,d_n,factorization\n")
        for n, rec in rows:
            sys.stdout.write(f"{n},{rec.value},{rec.factorization()}\n")
    elif args.format == "json":
        _emit([{"n": n, "d_n": rec.value, "factorization": rec.factorization()} for n, rec in rows])
    else:
        for n, rec in rows:
            sys.stdout.write(f"{n}\t{rec.value}\t{rec.factorization()}\n")
    return 0


def cmd_check(args) -> int:
    from .series import TruncSeries
    try:
        with open(args.input) as fh:
            G = TruncSeries.from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _emit({"error": f"cannot read series: {exc}"})
        return 2
    budget = _budget_from_args(args)
    verdict: dict = {"test": args.test}
    if args.test in ("s", "tower"):
        from .stable import s_criterion, tower_member
    else:
        from .classify import in_Opnm_phi, in_Qn, in_Qnm
    if args.test == "qn":
        member = in_Qn(G, args.n)
    elif args.test == "qnm":
        member = in_Qnm(G, args.n, args.m)
    elif args.test == "opnm":
        member = in_Opnm_phi(G, args.n, args.m)
    elif args.test == "s":
        rep = s_criterion(G, primes=budget.primes)
        member = rep.ok
        if rep.witness:
            verdict["witness"] = list(rep.witness)
        if rep.skipped:
            verdict["skipped"] = [list(s) for s in rep.skipped]
    else:  # tower
        member = tower_member(G, args.n, budget)
    verdict["member"] = member
    _emit(verdict)
    return 0 if member else 1


def cmd_basis(args) -> int:
    from .stable import construct_Fn
    budget = _budget_from_args(args)
    F = construct_Fn(args.n, args.trunc, budget)
    payload = F.to_json()
    payload["budget"] = budget.to_json()
    _emit(payload)
    return 0


def cmd_verify(args) -> int:
    from .suites import SUITES
    fn = SUITES.get(args.suite)
    if fn is None:
        _emit({"error": f"unknown suite {args.suite}", "known": sorted(SUITES)})
        return 2
    ok, report = fn(T=args.trunc, seed=args.seed)
    _emit({"suite": args.suite, "ok": ok, "report": report})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ckops",
        description="Exact series calculus for connective K-theory operations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def budget_flags(p):
        p.add_argument("--primes", default="2,3,5,7", help="budget primes, comma separated")
        p.add_argument("--prec", type=int, default=8, help="per-prime precision exponent")

    p_dn = sub.add_parser("dn", help="table of the integers d_n")
    p_dn.add_argument("--max", type=int, default=7)
    p_dn.add_argument("--format", default="json", choices=["json", "csv", "text"])
    p_dn.set_defaults(fn=cmd_dn, parser=p_dn)

    p_check = sub.add_parser("check", help="membership tests")
    p_check.add_argument("--input", required=True, help="series JSON file")
    p_check.add_argument("--test", required=True, choices=["qn", "qnm", "opnm", "s", "tower"])
    p_check.add_argument("--n", type=int, default=1)
    p_check.add_argument("--m", type=int, default=1)
    budget_flags(p_check)
    p_check.set_defaults(fn=cmd_check, parser=p_check)

    p_basis = sub.add_parser("basis", help="emit the basis series F_n")
    p_basis.add_argument("--n", type=int, required=True)
    p_basis.add_argument("--trunc", type=int, default=12, help="series truncation degree")
    budget_flags(p_basis)
    p_basis.set_defaults(fn=cmd_basis, parser=p_basis)

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument("suite")
    p_verify.add_argument("--trunc", type=int, default=12, help="series truncation degree")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(fn=cmd_verify, parser=p_verify)
    return ap


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # a flag the subcommand does not take: its usage, not the root's
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        _check_counts(args)
        return args.fn(args)
    except Exception as exc:  # the exit contract: every failure is exit 2
        # domain errors (PrecisionError, NotInGroup, ...) carry named reasons
        named = isinstance(exc, (ValueError, ArithmeticError))
        _emit({"error": str(exc) if named else f"{type(exc).__name__}: {exc}"})
        return 2


if __name__ == "__main__":
    sys.exit(main())
