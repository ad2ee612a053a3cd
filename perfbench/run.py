"""The ckops benchmark: four seeded closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a ckops checkout; it imports the sources under
``src/``.  With ``--trace 0`` it times whole rounds of operations for at
least ``--seconds`` (and at least ``MIN_ROUNDS`` rounds) and reports the
end-to-end metrics, with every time scaled to a fixed reference speed
(``SpeedGauge``).  With ``--trace 1`` it runs ``TRACE_ROUNDS`` rounds
under cProfile, then the same rounds untraced, and reports the per-layer
metrics; a fixed round count makes every count repeat exactly for a seed.
Either way every verdict is checked against a known answer, and the last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Workloads: membership, stable_basis, composition, cli (see README.md).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import cProfile
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "ckops" / "__init__.py").is_file():
    sys.exit(f"perfbench: no ckops sources at {SRC / 'ckops'}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import workloads  # noqa: E402
from ckops.stable import CriterionReport  # noqa: E402

SETUP_PROBES = 11
IMPORT_PROBES = 5
# Whole rounds per untraced run at least: each keeps ten or more ops above
# the 90th percentile (README.md, "Sizing").
MIN_ROUNDS = {"membership": 3, "stable_basis": 3, "composition": 4, "cli": 5}
TRACE_ROUNDS = {"membership": 2, "stable_basis": 3, "composition": 4, "cli": 3}
# Reported times are scaled to a machine on which reference_work() takes
# this long (README.md, "Speed scaling").
REFERENCE_S = 2.5e-3


def reference_work():
    """Fixed stdlib-only work with the mix of ckops' hot code: big-Fraction
    arithmetic, a dict of small Fractions built by accumulation, a small-int
    loop, and list and dict building with a sort.  Nothing here depends on
    the library, so a change to ckops cannot move it."""
    acc = Fraction(0)
    for i in range(1, 64):
        acc += Fraction(i % 11 - 5, i % 7 + 1)
        acc *= Fraction(i + 1, i + 2)
    table = {}
    for i in range(1, 160):
        key = (i % 37, i % 11)
        table[key] = table.get(key, Fraction(0)) + Fraction(i, i % 13 + 1)
    h = 0
    for i in range(8000):
        h = (h * 31 + i) % 1000003
    rows, slots = [], {}
    for i in range(1200):
        slots[i % 97] = [i, i + 1]
        rows.append((i, i * i))
    rows.sort(key=lambda row: -row[0])
    return acc, table, h, rows, slots


class SpeedGauge:
    """Scales measured times to a fixed machine speed.

    The host's speed drifts by up to 60% within seconds, and the drift
    slows ckops and other pure-Python code by similar, not equal, factors
    (README.md, "Speed scaling").  The client times
    ``reference_work()`` between ops, at most every ``INTERVAL_S``, and
    once after the last op.  A span's time is multiplied by
    ``REFERENCE_S`` over the median of the six samples nearest its start,
    three before and three after.
    """

    INTERVAL_S = 0.05

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.stamps.append(t0)
        self.samples.append(time.perf_counter() - t0)

    def due(self) -> bool:
        return not self.stamps or time.perf_counter() - self.stamps[-1] >= self.INTERVAL_S

    def scaled(self, spans: list[tuple[float, float]]) -> list[float]:
        """Each ``(start, seconds)`` span's seconds at the reference speed."""
        out = []
        for start, seconds in spans:
            i = bisect.bisect_right(self.stamps, start)
            window = self.samples[max(0, i - 3) : i + 3]
            out.append(seconds * REFERENCE_S / statistics.median(window))
        return out


@dataclass
class Record:
    kind: str
    round: int
    start: float
    seconds: float
    ok: bool
    defect: str | None = None  # set when a failure is a named known defect
    error: str | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str]) -> tuple[float, int, str, str, int]:
    """Run argv to completion: (seconds, exit code, stdout, stderr, peak RSS KB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=child_env()
    )
    try:
        # outputs are a few KB, far below the pipe buffer, so reading
        # stdout first cannot block on a full stderr
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    seconds = time.perf_counter() - t0
    return seconds, proc.returncode, out.decode(), err.decode(), usage.ru_maxrss


class Client:
    """The single closed-loop client: runs one op at a time and records it.

    With a profiler, only the call into ckops runs under it; with a cache
    counter, lru_cache hits and misses are summed over the same calls.  CLI
    ops run as fresh ``python -m ckops.cli`` processes, or, when
    ``inprocess_cli`` is set, as a replay of the same argv through
    ``ckops.cli.main``.  A speed gauge, if given, is sampled between ops.
    """

    def __init__(self, profiler=None, caches=None, inprocess_cli=False, gauge=None):
        self.profiler = profiler
        self.gauge = gauge
        self.caches = caches
        self.inprocess_cli = inprocess_cli
        self.records: list[Record] = []
        self.peak_child_kb = 0
        self.skipped = 0

    def run(self, op, round_index: int) -> None:
        if self.gauge and self.gauge.due():
            self.gauge.sample()
        start = time.perf_counter()
        try:
            args = op.args()
        except Exception as exc:  # an op this one depends on failed earlier
            self.records.append(Record(op.kind, round_index, start, 0.0, False, error=repr(exc)))
            return
        if op.fn is None:
            seconds, result = self._cli(args)
        else:
            seconds, result = self._call(op.fn, args)
        if isinstance(result, BaseException):
            self.records.append(Record(op.kind, round_index, start, seconds, False, error=repr(result)))
            return
        ok = bool(op.check(result))
        defect = None
        if not ok and op.known_defect:
            code, _out, err = result
            last = err.strip().splitlines()[-1] if err.strip() else ""
            if code == 1 and last.startswith(workloads.KNOWN_DEFECTS[op.known_defect]):
                defect = op.known_defect
        if isinstance(result, CriterionReport):
            self.skipped += len(result.skipped)
        self.records.append(Record(op.kind, round_index, start, seconds, ok, defect))

    def _call(self, fn, args):
        before = layers.cache_snapshot() if self.caches else None
        t0 = time.perf_counter()
        try:
            if self.profiler:
                self.profiler.enable()
            try:
                result = fn(*args)
            finally:
                if self.profiler:
                    self.profiler.disable()
        except Exception as exc:  # a raising op is a failed op, not a crash
            result = exc
        seconds = time.perf_counter() - t0
        if self.caches:
            self.caches.add(before, layers.cache_snapshot())
        return seconds, result

    def _cli(self, argv):
        if not self.inprocess_cli:
            seconds, code, out, err, rss_kb = spawn([sys.executable, "-m", "ckops.cli", *argv])
            self.peak_child_kb = max(self.peak_child_kb, rss_kb)
            return seconds, (code, out, err)
        from ckops import cli

        out, err = io.StringIO(), io.StringIO()

        def replay():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return cli.main(list(argv))
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # what the process would print before exit 1
                err.write("Traceback (most recent call last):\n")
                err.write("".join(traceback.format_exception_only(exc)))
                return 1

        seconds, code = self._call(replay, ())
        return seconds, (code, out.getvalue(), err.getvalue())


def measure(workload: str, pool: list, client: Client, seconds: float, min_rounds: int) -> None:
    """Run whole rounds until ``seconds`` have passed and ``min_rounds`` are done."""
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for op in workloads.plan(workload, pool, rounds):
            client.run(op, rounds)
        rounds += 1
    if client.gauge:
        client.gauge.sample()


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def ready_spans(argv: list[str], probes: int, gauge: SpeedGauge | None = None) -> list[tuple[float, float]]:
    """(start, wall time) from starting ``argv`` in a fresh process until it
    prints ``ready``, for each of ``probes`` processes run one after another;
    ``gauge`` is sampled before each and after the last."""
    spans = []
    for _ in range(probes):
        if gauge:
            gauge.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=child_env())
        line = proc.stdout.readline()
        spans.append((t0, time.perf_counter() - t0))
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"probe {argv} did not get ready")
    if gauge:
        gauge.sample()
    return spans


def setup_spans(workload: str, seed: int, workdir: Path, gauge: SpeedGauge) -> list[tuple[float, float]]:
    probe_dir = workdir / "probe"
    argv = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(probe_dir)]
    try:
        return ready_spans(argv, SETUP_PROBES, gauge)
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)


def end_to_end(records: list[Record], seconds: list[float], setup_s: float, peak_rss_kb: int) -> dict:
    """The end-to-end metrics; ``seconds`` holds the time of each record."""
    times = sorted(seconds)
    return {
        "ops_per_s": len(times) / sum(times),
        "latency_p50_ms": nearest_rank(times, 0.5) * 1e3,
        "latency_p90_ms": nearest_rank(times, 0.9) * 1e3,
        "ok_frac": sum(r.ok for r in records) / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def op_metrics(records: list[Record]) -> dict:
    out = {}
    for kind in workloads.OP_KINDS:
        times = sorted(r.seconds for r in records if r.kind == kind)
        out[f"op.{kind}.count"] = len(times)
        out[f"op.{kind}.p50_ms"] = nearest_rank(times, 0.5) * 1e3 if times else 0.0
    return out


def per_layer(workload: str, pool: list) -> tuple[dict, list[Record]]:
    """R profiled rounds, then the same R rounds untraced for the overhead."""
    rounds = TRACE_ROUNDS[workload]
    profiler = cProfile.Profile()
    caches = layers.CacheCounter()
    traced = Client(profiler, caches, inprocess_cli=True)
    measure(workload, pool, traced, 0, rounds)
    plain = Client(inprocess_cli=True)
    measure(workload, pool, plain, 0, rounds)

    metrics = layers.layer_metrics(profiler)
    metrics.update(caches.metrics())
    metrics["stable.s_criterion.skipped"] = traced.skipped
    spans = ready_spans([sys.executable, "-c", "import ckops.cli; print('ready')"], IMPORT_PROBES)
    metrics["cli.import_ms"] = 1e3 * statistics.median(s for _, s in spans)
    metrics.update(op_metrics(traced.records))
    # Round 0 fills the caches in the traced half only, so compare the
    # warm rounds: untraced / traced ops_per_s over the same ops.
    warm = 1 if rounds > 1 else 0
    t_traced = sum(r.seconds for r in traced.records if r.round >= warm)
    t_plain = sum(r.seconds for r in plain.records if r.round >= warm)
    metrics["trace.overhead_ratio"] = t_traced / t_plain
    return metrics, traced.records + plain.records


def gate(records: list[Record]) -> tuple[bool, int]:
    """The correctness gate: (no failure outside the named known defects,
    number of failed ops).  Failures are reported on standard error."""
    failed = [r for r in records if not r.ok]
    unexpected = [r for r in failed if r.defect is None]
    for name in sorted({r.defect for r in failed if r.defect}):
        count = sum(r.defect == name for r in failed)
        print(f"perfbench: known defect {name}: {count} ops failed", file=sys.stderr)
    for r in unexpected[:10]:
        print(f"perfbench: FAILED {r.kind} (round {r.round}): {r.error or 'wrong verdict'}", file=sys.stderr)
    return not unexpected, len(failed)


def unit_of(name: str) -> str:
    fixed = {
        "ops_per_s": "ops/s",
        "latency_p50_ms": "ms",
        "latency_p90_ms": "ms",
        "ok_frac": "ratio",
        "setup_s": "s",
        "peak_rss_mb": "MB",
    }
    if name in fixed:
        return fixed[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        if args.trace:
            pool = workloads.make_inputs(args.workload, args.seed, workdir)
            metrics, records = per_layer(args.workload, pool)
        else:
            setup_gauge = SpeedGauge()
            probes = setup_spans(args.workload, args.seed, workdir, setup_gauge)
            pool = workloads.make_inputs(args.workload, args.seed, workdir)
            client = Client(gauge=SpeedGauge())
            measure(args.workload, pool, client, args.seconds, MIN_ROUNDS[args.workload])
            records = client.records
            if args.workload == "cli":
                peak_kb = client.peak_child_kb
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            spans = [(r.start, r.seconds) for r in records]
            setup_s = statistics.median(setup_gauge.scaled(probes))
            metrics = end_to_end(records, client.gauge.scaled(spans), setup_s, peak_kb)
            wall = end_to_end(records, [s for _, s in spans], statistics.median(s for _, s in probes), peak_kb)
            print(
                "perfbench: unscaled wall times: "
                + ", ".join(f"{k}={wall[k]:.6g}" for k in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s"))
                + f"; reference_work median {statistics.median(client.gauge.samples) * 1e3:.4g} ms",
                file=sys.stderr,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    correct, failed = gate(records)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
