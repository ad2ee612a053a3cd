"""Self-tests of the benchmark harness (not part of the library's tier-1 suite).

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def deterministic(metrics):
    return {
        k: v["value"]
        for k, v in metrics.items()
        if k.endswith((".calls", ".count", ".hit_ratio", ".size")) or k == "stable.s_criterion.skipped"
    }


@pytest.mark.parametrize("workload", ["cli", "stable_basis"])
def test_traced_counts_repeat_for_a_seed(workload):
    first = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"))
    second = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"))
    assert first["correct"] and second["correct"]
    assert deterministic(first["metrics"]) == deterministic(second["metrics"])
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared("per_layer")


def test_untraced_run_prints_every_end_to_end_metric():
    out = result_of(bench("--workload", "composition", "--seed", "4", "--seconds", "0", "--trace", "0"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


def _run_ops(ops):
    client = run.Client()
    for op in ops:
        client.run(op, 0)
    return run.gate(client.records)


def test_flipped_known_answer_fails_the_gate(tmp_path):
    pool = workloads.make_inputs("membership", 5, tmp_path)
    ops = workloads.plan("membership", pool, 0)[:6]  # n = 1: sub-millisecond ops
    assert _run_ops(ops) == (True, 0)
    flipped = workloads.plan("membership", pool, 0)[:6]
    original = flipped[3].check
    flipped[3].check = lambda result: not original(result)
    assert _run_ops(flipped) == (False, 1)


def test_known_defect_excuses_only_its_own_signature(tmp_path):
    pool = workloads.make_inputs("cli", 5, tmp_path)
    ops = [op for op in workloads.plan("cli", pool, 0) if op.kind == "cli.malformed"]
    assert [op.known_defect is not None for op in ops].count(True) == 3
    correct, failed = _run_ops(ops)
    assert correct
    renamed = [op for op in workloads.plan("cli", pool, 0) if op.known_defect]
    for op in renamed:
        op.known_defect = "cli_zero_denominator" if op.known_defect != "cli_zero_denominator" else "cli_budget_outside_primes"
    assert _run_ops(renamed)[0] is False


def _fingerprint(obj, root):
    if isinstance(obj, (list, tuple)):
        return [_fingerprint(x, root) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _fingerprint(v, root) for k, v in obj.items()}
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, str) and obj.startswith(str(root)):
        return Path(obj).read_text()
    return obj


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_changes_inputs_not_the_op_mix(workload, tmp_path):
    a = workloads.make_inputs(workload, 1, tmp_path / "a")
    b = workloads.make_inputs(workload, 2, tmp_path / "b")
    assert _fingerprint(a, tmp_path) != _fingerprint(b, tmp_path)
    for i in range(workloads.POOL_ROUNDS):
        kinds_a = [op.kind for op in workloads.plan(workload, a, i)]
        kinds_b = [op.kind for op in workloads.plan(workload, b, i)]
        assert kinds_a == kinds_b
    again = workloads.make_inputs(workload, 1, tmp_path / "c")
    assert _fingerprint(again, tmp_path) == _fingerprint(a, tmp_path)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_gauge_scales_by_the_nearest_reference_samples():
    gauge = run.SpeedGauge()
    # a slow phase (reference at twice REFERENCE_S) then a fast one (at half)
    gauge.stamps = [float(t) for t in range(12)]
    gauge.samples = [2 * run.REFERENCE_S] * 6 + [run.REFERENCE_S / 2] * 6
    slow, fast = gauge.scaled([(2.5, 1.0), (9.5, 1.0)])
    assert slow == pytest.approx(0.5) and fast == pytest.approx(2.0)
