"""Byte-identity check of the ckops command line against a committed manifest.

Each command runs as its own ``python -X dev -W error -m ckops.cli``
process on this checkout's ``src``, from the repository root, with no
cached bytecode.  The manifest, ``byte_identity.manifest`` beside this
file, holds one line per command: the SHA-256 of its stdout, its exit code
and its arguments.  The commands are every identity suite at --trunc 0, 1,
3, 8, 12 and 16, the suites that run in seconds at 32, adams at 48, dn in
its three formats and to n = 40, basis --n 0..4 and the largest F_n the
stable_basis benchmark builds (n = 6 at --trunc 16), the seeded suites on
two more draws, and check over the input files in ``check_inputs/``.

    python tests/byte_identity.py            # exit 1 if any line differs
    python tests/byte_identity.py --update   # rewrite it, print what changed

A change that alters a line names it, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MANIFEST = HERE / "byte_identity.manifest"
# -X dev shows warnings such as a file never closed, and -W error turns each
# into an exception, which the CLI reports as exit 2: a warning changes a line
FLAGS = ("-X", "dev", "-W", "error")

# --trunc 1 and 3: no suite may draw inputs outside its own window; 0: 1 - x
# and the lg basis at the smallest truncation; 12: the derivative route at
# the largest truncation the membership workload checks; 16: the lg basis,
# Composer and the stable-basis checks at the benchmark's truncation, where
# multisym's packed exponent keys are in base 17
SUITE_TRUNCS = (0, 1, 3, 8, 12, 16)
# the suites that take a few seconds at T = 32 (aformula and integration
# take about 57 s and 18 s there)
SUITES_AT_32 = ("ifandonlyif", "adams", "idempotents", "s-dual-route", "kgr-duality", "basis")
# the suites that draw random inputs, each on two more draws at T = 8
SEEDED = ("aformula", "integration", "ifandonlyif", "s-dual-route", "kgr-duality")
# check over the committed inputs: the Zhat file whose x^2 is known mod 4
# only (a qnm member, read through a zero known to fewer digits); A_3 at
# budget (2)^4, which lacks the default primes [3, 5, 7] (exit 2) and holds
# --primes 2; x^4/8 at T = 4, where the Phi and derivative routes disagree;
# and a zero denominator
INPUTS = "tests/check_inputs/"
CHECKS = (
    ("low_digits.json", "qnm", "--n", "2", "--m", "3"),
    ("adams3_at_2_4.json", "s"),
    ("adams3_at_2_4.json", "tower", "--n", "1"),
    ("adams3_at_2_4.json", "s", "--primes", "2", "--prec", "4"),
    ("adams3_at_2_4.json", "tower", "--n", "1", "--primes", "2", "--prec", "4"),
    ("x4_over_8.json", "opnm", "--n", "3", "--m", "1"),
    ("x4_over_8.json", "qnm", "--n", "3", "--m", "1"),
    ("zero_denominator.json", "qn"),
)


def commands() -> list[tuple[str, ...]]:
    """The argument lists of every manifest line, in manifest order."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from ckops.suites import SUITES

    out = [("verify", s, "--trunc", str(T)) for s in SUITES for T in SUITE_TRUNCS]
    out += [("verify", s, "--trunc", "32") for s in SUITES_AT_32]
    # Composer's triangular table past T = 32
    out.append(("verify", "adams", "--trunc", "48"))
    out += [("dn", "--format", f) for f in ("json", "csv", "text")]
    out.append(("dn", "--max", "40"))
    out += [("basis", "--n", str(n)) for n in range(5)]
    out.append(("basis", "--n", "6", "--trunc", "16"))
    # --trunc last: a seeded line is no quick line of tests/test_cli.py
    out += [("verify", s, "--seed", str(seed), "--trunc", "8") for s in SEEDED for seed in (1, 2)]
    out += [("check", "--input", INPUTS + f, "--test", *rest) for f, *rest in CHECKS]
    return out


def run(argv: tuple[str, ...]) -> str:
    """The manifest line of one command: stdout's SHA-256, exit code, arguments."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *FLAGS, "-m", "ckops.cli", *argv], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    return f"{hashlib.sha256(proc.stdout).hexdigest()} {proc.returncode} {' '.join(argv)}"


def run_all(cmds) -> list[str]:
    """The manifest lines of ``cmds``, in order, two processes at a time."""
    with ThreadPoolExecutor(2) as pool:
        return list(pool.map(run, cmds))


def read_manifest() -> dict[str, str]:
    """Manifest lines keyed by their arguments."""
    lines = MANIFEST.read_text().splitlines() if MANIFEST.exists() else []
    return {line.split(" ", 2)[2]: line for line in lines}


def diff(lines: list[str], manifest: dict[str, str]) -> list[str]:
    """'-' old and '+' new for every line that is not in the manifest as it
    is, and '-' for every manifest line with no command."""
    out = []
    keys = set()
    for line in lines:
        key = line.split(" ", 2)[2]
        keys.add(key)
        if manifest.get(key) != line:
            if key in manifest:
                out.append(f"- {manifest[key]}")
            out.append(f"+ {line}")
    out += [f"- {line}" for key, line in manifest.items() if key not in keys]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update", action="store_true", help="rewrite the manifest")
    args = ap.parse_args(argv)
    lines = run_all(commands())
    changed = diff(lines, read_manifest())
    for line in changed:
        print(line)
    if args.update:
        MANIFEST.write_text("".join(line + "\n" for line in lines))
        print(f"{MANIFEST.name}: {len(lines)} lines written, {len(changed)} diff lines")
        return 0
    print(f"{len(lines)} commands, {len(changed)} diff lines against {MANIFEST.name}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
