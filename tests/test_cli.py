import json

import pytest

from ckops import PrimeBudget, ProfiniteRing, TruncSeries, Z, adams_series
from ckops.cli import main


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


def test_verify_unknown_suite(capsys):
    code, out = run(capsys, "verify", "nosuch")
    assert code == 2
