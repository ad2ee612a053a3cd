import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ckops import (
    PrimeBudget,
    ProfiniteApprox,
    ProfiniteRing,
    Q,
    TruncSeries,
    Z,
    adams_series,
    lg_series,
)
from ckops.cli import main
from ckops.suites import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dn_table_text(capsys):
    code, out = run(capsys, "dn", "--max", "7", "--format", "text")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows[-1][:2] == ["7", "1152"]
    assert rows[6][:2] == ["6", "4032"]


def test_dn_single_row(capsys):
    code, out = run(capsys, "dn", "--max", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["n,d_n,factorization", "0,1,1"]


def test_dn_csv_thirteen_rows(capsys):
    code, out = run(capsys, "dn", "--max", "12", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14  # header + 13 rows
    assert lines[3].startswith("2,12,")


def test_check_member(tmp_path, capsys):
    f = tmp_path / "a3.json"
    f.write_text(json.dumps(adams_series(3, 10).to_json()))
    code, out = run(capsys, "check", "--input", str(f), "--test", "s", "--primes", "2,5")
    assert code == 0
    assert json.loads(out)["member"] is True


def test_check_non_member_witness(tmp_path, capsys):
    f = tmp_path / "x.json"
    f.write_text(json.dumps(TruncSeries(Z, 8, [0, 1]).to_json()))
    code, out = run(capsys, "check", "--input", str(f), "--test", "s")
    assert code == 1
    payload = json.loads(out)
    assert payload["member"] is False
    assert payload["witness"] == [2, 1, 2, 0]


def test_check_s_reports_skipped_instances(tmp_path, capsys):
    # A_5 over (2,3)^4 with [x^3] known only mod 2: a member, with the
    # instances beyond that precision listed
    B = PrimeBudget.uniform([2, 3], 4)
    R = ProfiniteRing(B)
    coeffs = list(adams_series(5, 8).map_coeffs(R.coerce, R).coeffs)
    c = coeffs[3]
    coeffs[3] = ProfiniteApprox(B, {2: c.residue[2] % 2, 3: c.residue[3]}, {2: 1, 3: 4})
    f = tmp_path / "blind.json"
    f.write_text(json.dumps(TruncSeries(R, 8, coeffs).to_json()))
    code, out = run(capsys, "check", "--input", str(f), "--test", "s", "--primes", "2,3", "--prec", "4")
    assert code == 0
    assert out == '{"member":true,"skipped":[[2,2,4],[2,2,8],[2,3,8]],"test":"s"}\n'


def test_check_truncation_too_small_is_error(tmp_path, capsys):
    f = tmp_path / "short.json"
    f.write_text(json.dumps(TruncSeries(Z, 2, [0, 1, 1]).to_json()))
    code, out = run(capsys, "check", "--input", str(f), "--test", "opnm", "--n", "5", "--m", "5")
    assert code == 2
    assert "error" in json.loads(out)


def test_check_coefficient_without_digits_is_error(tmp_path, capsys):
    f = tmp_path / "blind.json"
    zero = {"primes": [[2, 1, 0]]}
    f.write_text(json.dumps({"ring": {"profinite": [[2, 1]]}, "trunc": 3,
                             "coeffs": [zero, {"primes": [[2, 0, 0]]}, zero, zero]}))
    code, out = run(capsys, "check", "--input", str(f), "--test", "opnm", "--n", "1", "--m", "3")
    assert code == 2
    assert out.count("\n") == 1
    assert "p=2" in json.loads(out)["error"]


def test_check_qnm_coefficient_without_digits_is_error(tmp_path, capsys):
    # the derivative route reads the input's own x^1, which is unknown
    f = tmp_path / "blind.json"
    zero = {"primes": [[2, 1, 0]]}
    f.write_text(json.dumps({"ring": {"profinite": [[2, 1]]}, "trunc": 3,
                             "coeffs": [zero, {"primes": [[2, 0, 0]]}, zero, zero]}))
    code, out = run(capsys, "check", "--input", str(f), "--test", "qnm", "--n", "1", "--m", "3")
    assert code == 2
    assert out.count("\n") == 1
    assert "coefficient 1 has no digits at p=2" in json.loads(out)["error"]


def test_check_qnm_keeps_a_zero_known_to_fewer_digits(tmp_path, capsys):
    # G = -4x + a2 x^2 at budget 2^4 with a2 = 2 known mod 4: the x1 x2
    # coefficient of partial G is 4 + 2 a2 = 0 mod 8, a member.  Read as an
    # exact 0, the product 2 a2 (0 mod 2^2) made the route answer 1
    f = tmp_path / "low.json"
    f.write_text(json.dumps({"ring": {"profinite": [[2, 4]]}, "trunc": 2, "coeffs": [
        {"primes": [[2, 4, 0]]}, {"primes": [[2, 4, 12]]}, {"primes": [[2, 2, 2]]}]}))
    code, out = run(capsys, "check", "--input", str(f), "--test", "qnm", "--n", "2", "--m", "3")
    assert (code, out) == (0, '{"member":true,"test":"qnm"}\n')


def test_check_malformed_json(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, out = run(capsys, "check", "--input", str(f), "--test", "s")
    assert code == 2


def test_check_zero_denominator_is_error(tmp_path, capsys):
    f = tmp_path / "zero_den.json"
    f.write_text(json.dumps({"ring": "Q", "trunc": 3, "coeffs": ["1/2", "1/0", "0", "3"]}))
    code, out = run(capsys, "check", "--input", str(f), "--test", "qn")
    assert code == 2
    assert out.count("\n") == 1
    assert "zero denominator" in json.loads(out)["error"]


@pytest.mark.parametrize("test", [["s"], ["tower", "--n", "1"]])
def test_check_input_budget_missing_primes_is_error(tmp_path, capsys, test):
    small = ProfiniteRing(PrimeBudget.uniform([2], 4))
    f = tmp_path / "small.json"
    f.write_text(json.dumps(adams_series(3, 4).map_coeffs(small.coerce, small).to_json()))
    code, out = run(capsys, "check", "--input", str(f), "--test", *test)
    assert code == 2
    assert out.count("\n") == 1
    assert "[3, 5, 7]" in json.loads(out)["error"]
    # with --primes inside the input budget the same series is checked
    code, out = run(capsys, "check", "--input", str(f), "--test", *test, "--primes", "2", "--prec", "4")
    assert code == 0 and json.loads(out)["member"] is True


def test_basis_leading_coefficients(tmp_path, capsys):
    code, out = run(capsys, "basis", "--n", "1", "--trunc", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["int_coeffs"][1] == 2
    code, out = run(capsys, "basis", "--n", "2", "--trunc", "8")
    assert json.loads(out)["int_coeffs"][2] == 12


def test_basis_shallow_budget_is_error(capsys):
    # G_16's weight denominators are not units mod 2^5 at the glued nodes
    code, out = run(
        capsys, "basis", "--n", "2", "--trunc", "16",
        "--primes", "2,3,5,7,11,13", "--prec", "5",
    )
    assert code == 2
    assert out.count("\n") == 1
    assert "p=2" in json.loads(out)["error"]


def test_basis_pipe_through_check(tmp_path, capsys):
    code, out = run(capsys, "basis", "--n", "2", "--trunc", "10")
    payload = json.loads(out)
    f = tmp_path / "f2.json"
    f.write_text(json.dumps(payload["series"]))
    code, out = run(capsys, "check", "--input", str(f), "--test", "s")
    assert code == 0
    assert json.loads(out)["member"] is True


def test_basis_deterministic_bytes(capsys):
    _, out1 = run(capsys, "basis", "--n", "3", "--trunc", "10")
    _, out2 = run(capsys, "basis", "--n", "3", "--trunc", "10")
    assert out1 == out2


def test_verify_suites(capsys):
    code, out = run(capsys, "verify", "idempotents", "--trunc", "10")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out = run(capsys, "verify", "s-dual-route", "--trunc", "10", "--seed", "7")
    assert code == 0 and json.loads(out)["ok"] is True
    # the basis suite checks F_0..F_min(3, T), whose leading terms fit the truncation
    code, out = run(capsys, "verify", "basis", "--trunc", "2")
    assert code == 0 and json.loads(out)["report"] == {"range": "0..2", "digest": "4a13e6d2"}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_suite_at_small_truncations(suite):
    # no suite draws inputs outside its own window
    for T in (3, 5):
        ok, report = SUITES[suite](T, 0)
        assert ok, (suite, T, report)


@pytest.mark.parametrize("T", [0, 1, 2])
def test_every_suite_at_the_smallest_truncations(capsys, T):
    # every suite answers at T >= 1; at T = 0 only ifandonlyif, whose routes
    # need 1 <= n <= T, refuses, with a named reason
    for suite in sorted(SUITES):
        code, out = run(capsys, "verify", suite, "--trunc", str(T))
        if suite == "ifandonlyif" and T == 0:
            assert code == 2 and "needs --trunc >= 1" in json.loads(out)["error"]
        else:
            assert code == 0 and json.loads(out)["ok"], (suite, T, out)


def test_verify_unknown_suite(capsys):
    code, out = run(capsys, "verify", "nosuch")
    assert code == 2


# -- each subcommand accepts only the flags it reads ------------------------------------


_BASE_CALLS = {
    "dn": ["dn"],
    "check": ["check", "--test", "s"],
    "basis": ["basis", "--n", "1"],
    "verify": ["verify", "adams"],
}


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("dn", "--primes", "2"),
        ("dn", "--prec", "1"),
        ("dn", "--trunc", "3"),
        ("dn", "--seed", "1"),
        ("check", "--trunc", "3"),
        ("check", "--seed", "1"),
        ("check", "--format", "csv"),
        ("basis", "--seed", "1"),
        ("basis", "--format", "text"),
        ("verify", "--primes", "2"),
        ("verify", "--prec", "1"),
        ("verify", "--format", "text"),
    ],
)
def test_flag_the_subcommand_does_not_read_is_usage_error(tmp_path, capsys, command, flag, value):
    f = tmp_path / "a3.json"
    f.write_text(json.dumps(adams_series(3, 10).to_json()))
    argv = _BASE_CALLS[command] + (["--input", str(f)] if command == "check" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert f"usage: ckops {command}" in captured.err


# -- the exit contract: 0 member / passed, 1 non-member / failed, 2 error --------------


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["check", "--test", "s", "--prec", "0"], "--prec must be >= 1"),
        (["check", "--test", "s", "--primes", "2,2"], "--primes entry 2 is repeated"),
        (["check", "--test", "s", "--primes", "x"], "--primes entry 'x' is not an integer"),
        (["check", "--test", "s", "--primes", "4"], "--primes entry 4 is not a prime"),
        (["check", "--test", "s", "--primes", "2,341"], "--primes entry 341 is not a prime"),
        (["check", "--test", "qnm", "--m", "-1"], "--m must be >= 0"),
        (["basis", "--n", "-1"], "--n must be >= 0"),
        (["basis", "--n", "2", "--trunc", "-2"], "--trunc must be >= 0"),
        (["verify", "adams", "--trunc", "-1"], "--trunc must be >= 0"),
        (["dn", "--max", "-1"], "--max must be >= 0"),
        (["basis", "--n", "5", "--trunc", "2"], "F_5 needs truncation >= 5 for its leading term"),
    ],
)
def test_bad_argument_values_are_named_errors(tmp_path, capsys, argv, reason):
    f = tmp_path / "a3.json"
    f.write_text(json.dumps(adams_series(3, 10).to_json()))
    if argv[0] == "check":
        argv = argv + ["--input", str(f)]
    code, out = run(capsys, *argv)
    assert code == 2
    assert out.count("\n") == 1
    assert reason in json.loads(out)["error"]


def _profinite_file(budget, *entries):
    coeffs = [{"primes": [[p, e, 0] for p, e in budget]}, {"primes": list(entries)}]
    return {"ring": {"profinite": budget}, "trunc": 2, "coeffs": coeffs}


_HALF = {"ring": "Q", "trunc": 3, "coeffs": ["1/2", "0", "0", "0"]}
_SHORT = {"ring": "Q", "trunc": 2, "coeffs": ["0", "1/2", "1/3"]}
_NO_PRIME = {"ring": {"profinite": []}, "trunc": 3, "coeffs": [{"primes": []}] * 4}
_BLIND = {"ring": {"profinite": [[2, 1]]}, "trunc": 3,
          "coeffs": [{"primes": [[2, 1, 0]]}, {"primes": [[2, 0, 0]]}, {"primes": [[2, 1, 0]]}]}
_BLIND_NONZERO = {"ring": {"profinite": [[2, 1], [3, 1]]}, "trunc": 3,
                  "coeffs": [{"primes": [[2, 1, 0], [3, 1, 0]]}, {"primes": [[2, 0, 0], [3, 1, 1]]},
                             {"primes": [[2, 1, 1], [3, 1, 0]]}, {"primes": [[2, 1, 0], [3, 1, 0]]}]}
_BLIND_0 = {"ring": {"profinite": [[2, 1]]}, "trunc": 3,
            "coeffs": [{"primes": [[2, 0, 0]]}, {"primes": [[2, 1, 1]]}, {"primes": [[2, 1, 0]]}]}


@pytest.mark.parametrize(
    "series,test,reason",
    [
        (_HALF, ["s"], "coefficient 0 = 1/2 is not an integer"),
        (_HALF, ["tower", "--n", "1"], "coefficient 0 = 1/2 is not an integer"),
        ({"ring": "Z", "trunc": 1, "coeffs": [0, 1.7]}, ["s"], "cannot coerce 1.7 into Z"),
        ({"ring": "Q", "trunc": 1, "coeffs": [0, 0.1]}, ["qn"], "cannot coerce 0.1 into Q"),
        ({"ring": "Z", "trunc": 2.5, "coeffs": [0, 2, 0]}, ["qn"], "truncation 2.5 is not an integer"),
        (_profinite_file([[2, 4]], [2, 4, 2.5]), ["opnm"], "entry [2, 4, 2.5] holds a non-integer"),
        (_profinite_file([[2, 4]], [2, 3.9, 1]), ["opnm"], "entry [2, 3.9, 1] holds a non-integer"),
        (_profinite_file([[2, 4.5]], [2, 4, 2]), ["opnm"], "budget entry [2, 4.5] holds a non-integer"),
        (_BLIND, ["qn", "--n", "0"], "coefficient 1 has no digits at p=2"),
        # the unknown coefficient is named by its input degree, not by one of Phi(G)
        (_BLIND, ["opnm", "--n", "1", "--m", "3"], "coefficient 1 has no digits at p=2"),
        (_BLIND, ["tower", "--n", "1", "--primes", "2", "--prec", "1"],
         "coefficient 1 has no digits at p=2"),
        # JSON true and false are no integers, though bool subclasses int
        ({"ring": "Z", "trunc": True, "coeffs": [0, True]}, ["qn", "--n", "1"],
         "coefficient 1 is the boolean True"),
        ({"ring": "Z", "trunc": True, "coeffs": [0, 1]}, ["qn", "--n", "1"],
         "truncation True is not an integer"),
        ({"ring": "Q", "trunc": 1, "coeffs": [0, False]}, ["s"], "coefficient 1 is the boolean False"),
        (_profinite_file([[2, 4]], [2, 4, True]), ["opnm"], "entry [2, 4, True] holds a non-integer"),
        (_profinite_file([[2, 4]], [2, True, 1]), ["opnm"], "entry [2, True, 1] holds a non-integer"),
        (_profinite_file([[2, True]], [2, 1, 1]), ["opnm"], "budget entry [2, True] holds a non-integer"),
        # a budget names primes, each once, and a coefficient carries each budget prime once
        (_profinite_file([[4, 2]], [4, 2, 1]), ["opnm"], "budget prime 4 is not a prime"),
        (_profinite_file([[4, 2]], [4, 2, 1]), ["qnm"], "budget prime 4 is not a prime"),
        (_profinite_file([[2, 2]], [2, 2, 1], [3, 1, 1]), ["opnm"],
         "profinite coefficient has prime 3 outside budget [[2, 2]]"),
        (_profinite_file([[2, 2]], [2, 2, 1], [2, 2, 3]), ["opnm"],
         "profinite coefficient repeats prime 2"),
        (_profinite_file([[2, 2], [3, 1]], [2, 2, 1]), ["opnm"],
         "profinite coefficient lacks budget prime 3"),
        # a short row names itself and the fields it should hold
        ({"ring": {"profinite": [[2]]}, "trunc": 1, "coeffs": [{"primes": [[2, 1, 0]]}]},
         ["opnm"], "budget entry [2] is not [prime, exponent]"),
        (_profinite_file([[2, 4]], [2, 4]), ["opnm"],
         "profinite coefficient entry [2, 4] is not [prime, precision, residue]"),
        # below truncation n, partial^(n-1) G has no monomial to check
        (_SHORT, ["qnm", "--n", "3", "--m", "3"], "need truncation >= 3, have 2"),
        (_SHORT, ["qn", "--n", "3"], "need truncation >= 3, have 2"),
        (_SHORT, ["opnm", "--n", "3", "--m", "3"], "need truncation >= 3, have 2"),
        # a constant term with no digits is unknown, not the zero the derivative
        # routes need (the Phi route never reads it: see the test below)
        (_BLIND_0, ["qn", "--n", "1"], "coefficient 0 has no digits at p=2"),
        (_BLIND_0, ["qnm", "--n", "2", "--m", "1"], "coefficient 0 has no digits at p=2"),
        # a nonzero coefficient with no digits at p = 2 is named by its input
        # degree, not by a key of the derivative
        (_BLIND_NONZERO, ["qnm", "--n", "2", "--m", "1"], "coefficient 1 has no digits at p=2"),
        (_BLIND_NONZERO, ["qn", "--n", "3"], "coefficient 1 has no digits at p=2"),
        # a level below 1 is always a member, but the input is read first
        (_HALF, ["tower", "--n", "0"], "coefficient 0 = 1/2 is not an integer"),
        # coeffs is a list and the series and each profinite coefficient are
        # JSON objects: a string or an object was read as its characters or keys
        ({"ring": "Q", "trunc": 2, "coeffs": {"0": 1, "1": 5}}, ["opnm", "--n", "1", "--m", "0"],
         "coeffs {'0': 1, '1': 5} is not a list"),
        ({"ring": "Q", "trunc": 3, "coeffs": "0123"}, ["s", "--primes", "2"], "coeffs '0123' is not a list"),
        ([1, 2], ["s"], "a series is a JSON object, not [1, 2]"),
        ({"ring": {"profinite": [[2, 4]]}, "trunc": 1, "coeffs": [{"primes": [[2, 4, 1]]}, 5]},
         ["opnm"], "coefficient 1 = 5 is not a JSON object"),
        # a budget of no prime carries no digit, and its series was a member
        (_NO_PRIME, ["qn", "--n", "2"], "budget names no prime"),
        (_NO_PRIME, ["qnm", "--n", "2", "--m", "3"], "budget names no prime"),
        (_NO_PRIME, ["opnm", "--n", "1", "--m", "3"], "budget names no prime"),
    ],
)
def test_inexact_input_is_named_error(tmp_path, capsys, series, test, reason):
    # an input value the checks would otherwise truncate or read as zero
    f = tmp_path / "input.json"
    f.write_text(json.dumps(series))
    code, out = run(capsys, "check", "--input", str(f), "--test", *test)
    assert code == 2
    assert out.count("\n") == 1
    assert reason in json.loads(out)["error"]


def test_opnm_answers_with_an_unknown_constant_term(tmp_path, capsys):
    # Phi never reads a_0, and Phi(G) = [1, 1, 0] mod 2 is known
    f = tmp_path / "input.json"
    f.write_text(json.dumps(_BLIND_0))
    code, out = run(capsys, "check", "--input", str(f), "--test", "opnm", "--n", "1", "--m", "1")
    assert code == 0
    assert out == '{"member":true,"test":"opnm"}\n'


def test_s_and_tower_agree_on_a_non_integer(tmp_path, capsys):
    # lg_2 + x + 2x^2 has 5/2 at x^2: no congruence witness, the same named error
    f = tmp_path / "input.json"
    f.write_text(json.dumps((lg_series(2, 8) + TruncSeries(Q, 8, [0, 1, 2])).to_json()))
    results = [run(capsys, "check", "--input", str(f), "--test", *test)
               for test in (["s"], ["tower", "--n", "1"])]
    assert results[0] == results[1]
    code, out = results[0]
    assert code == 2
    assert json.loads(out) == {"error": "coefficient 2 = 5/2 is not an integer"}


def _adams_file(T, r, e):
    ring = ProfiniteRing(PrimeBudget.uniform([2, 3], e))
    return adams_series(r, T).map_coeffs(ring.coerce, ring).to_json()


def _series_files():
    """Valid series of every ring, small enough for every test, plus
    garbled and ill-typed files."""
    blind = {"primes": [[2, 0, 0]]}
    zero = {"primes": [[2, 1, 0]]}
    rationals = st.sampled_from(["1/2", "-3/4", "0", "5", "1/0", "x", "2/3"])
    return st.one_of(
        st.builds(
            lambda T, cs: {"ring": "Z", "trunc": T, "coeffs": cs[: T + 1]},
            st.integers(0, 5), st.lists(st.integers(-12, 12), min_size=6, max_size=6),
        ),
        st.builds(
            lambda T, cs: {"ring": "Q", "trunc": T, "coeffs": cs[: T + 1]},
            st.integers(0, 5), st.lists(rationals, min_size=6, max_size=6),
        ),
        st.builds(
            _adams_file, st.integers(0, 5), st.sampled_from([1, 5, 6, 7, -1]), st.integers(1, 4)
        ),
        st.just({"ring": {"profinite": [[2, 1]]}, "trunc": 3, "coeffs": [zero, blind, zero, zero]}),
        st.just({"ring": "Z", "trunc": -4, "coeffs": [1]}),
        st.just({"ring": "Z", "trunc": 3, "coeffs": [1, 2]}),
        st.just({"ring": "R", "trunc": 1, "coeffs": [0, 1]}),
        st.just([1, 2, 3]),
        st.text(max_size=30),
    )


_BUDGET_FLAGS = {
    "--primes": st.sampled_from(["2,3,5,7", "2", "2,3", "3,5", "4", "2,2", "x", "", "1", "-2"]),
    "--prec": st.integers(-1, 5),
}
_COMMAND_FLAGS = {
    "dn": {"--max": st.integers(-2, 12), "--format": st.sampled_from(["json", "csv", "text"])},
    "check": {"--test": st.sampled_from(["qn", "qnm", "opnm", "s", "tower"]),
              "--n": st.integers(-2, 3), "--m": st.integers(-2, 4), **_BUDGET_FLAGS},
    "basis": {"--n": st.integers(-2, 8), "--trunc": st.integers(-2, 8), **_BUDGET_FLAGS},
    "verify": {"--seed": st.integers(0, 3)},
}


@st.composite
def _cli_calls(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = _COMMAND_FLAGS[command]
    argv = [command]
    if command == "verify":  # the suites' default truncation takes seconds
        argv.append(draw(st.sampled_from(sorted(SUITES) + ["nosuch"])))
        argv += ["--trunc", str(draw(st.integers(-2, 6)))]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    required = {"check": "--test", "basis": "--n"}.get(command)
    for flag in chosen + ([required] if required and required not in chosen else []):
        argv += [flag, str(draw(flags[flag]))]
    if draw(st.integers(0, 9)) == 9:  # an argparse usage error
        argv.append(draw(st.sampled_from(["--bogus", "--n", "--prec=x", "extra"])))
    return argv, draw(_series_files()) if command == "check" else None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cli_calls())
def test_cli_exit_contract_fuzz(call):
    argv, data = call
    with tempfile.TemporaryDirectory() as tmp:
        if data is not None:
            f = Path(tmp) / "input.json"
            f.write_text(data if isinstance(data, str) else json.dumps(data))
            argv = argv + ["--input", str(f)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage error: its own exit 2
                assert exc.code == 2 and out.getvalue() == "", argv
                return
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err and "Traceback" not in out, argv
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if argv[0] == "dn" and code == 0 and fmt != "json":
        return  # csv and text tables are several lines
    assert out.endswith("\n") and out.count("\n") == 1, (argv, out)
    payload = json.loads(out)
    if code == 1:
        key = {"check": "member", "verify": "ok"}[argv[0]]
        assert payload[key] is False, (argv, out)
    if code == 2:
        assert "error" in payload, (argv, out)


def test_cli_output_matches_the_byte_identity_manifest():
    # the quick lines of tests/byte_identity.manifest, each command in its
    # own process: dn, basis, check over tests/check_inputs, and every suite
    # at --trunc 0 and 1
    import byte_identity

    quick = [c for c in byte_identity.commands() if c[0] != "verify" or c[-1] in ("0", "1")]
    manifest = byte_identity.read_manifest()
    assert len(quick) == 34 and all(" ".join(c) in manifest for c in quick)
    assert byte_identity.run_all(quick) == [manifest[" ".join(c)] for c in quick]
