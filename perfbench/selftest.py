"""Self-test of the benchmark at small sizes (under a minute).

    python3 perfbench/selftest.py

1. Runs every workload through ``run.py --small``, untraced and traced,
   and checks the result line: exactly the four keys, no failed
   operation, every metric ``BENCHMARK.json`` declares present with its
   unit, end-to-end values above zero, per-layer self times adding up to
   the traced wall time.
2. Corrupts one output of each job kind in-process (flipped sweep
   decisions, a halved despreader transfer value, a slope oracle off by
   1e-9) and checks that the corrupted operation is counted as failed.
3. Runs ``run.py`` in a directory holding only ``BENCHMARK.json`` and
   ``perfbench/`` and checks that it exits non-zero without a result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from ffspread import analysis, cli, slope  # noqa: E402


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=600)


def check_result_lines(spec: dict) -> None:
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(declared == tracing.metric_units(),
           "BENCHMARK.json per_layer differs from tracing.metric_units()")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            expect(proc.returncode == 0, f"{workload} trace={trace} exited "
                   f"{proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: {result['failed']} of "
                   f"{result['attempted']} operations failed:\n{proc.stderr}")
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                expect(got is not None, f"{workload} trace={trace}: {m['name']} missing")
                expect(got["unit"] == m["unit"], f"{m['name']} unit {got['unit']!r}")
                expect(math.isfinite(got["value"]), f"{m['name']} = {got['value']}")
                if trace == 0:
                    expect(got["value"] > 0, f"{workload}: {m['name']} is not above 0")
            if trace:
                layers = sum(v["value"] for k, v in metrics.items()
                             if declared[k] == "s" and not k.startswith("trace."))
                wall = metrics["trace.wall_s"]["value"]
                residual = metrics["trace.residual_s"]["value"]
                expect(abs(layers + residual - wall) <= 1e-6 * wall,
                       f"{workload}: layers {layers} + residual {residual} != wall {wall}")
            print(f"ok   {workload:12s} trace={trace}  {len(metrics)} metrics, "
                  f"{result['attempted']} operations checked")


def _flip_decisions(decode):
    def corrupted(*args, **kwargs):
        result = decode(*args, **kwargs)
        result.decisions = -result.decisions
        return result
    return corrupted


def _halve_exact(point):
    def corrupted(*args, **kwargs):
        m_e, se = point(*args, **kwargs)
        return 0.5 * m_e, se
    return corrupted


def _shift_oracle(oracle):
    def corrupted(*args, **kwargs):
        result = oracle(*args, **kwargs)
        return dataclasses.replace(result, value=result.value + Fraction(1, 10**9))
    return corrupted


CORRUPTIONS = {
    "sweep-s1": (cli, "decode_frame", _flip_decisions),
    "exit-chart": (analysis, "exit_ffdes_exact", _halve_exact),
    "slope-table": (slope, "g_oracle", _shift_oracle),
}


def check_corruption_counted() -> None:
    run.OUT.mkdir(exist_ok=True)
    for workload, (module, attr, corrupt) in CORRUPTIONS.items():
        job, _ = jobs.make_jobs(workload, 3, run.OUT, small=True)
        job.setup()
        tally = run.Tally()
        tally.run(job, 0)
        expect(tally.failed == 0, f"{workload}: clean operation failed: {tally.failures}")
        original = getattr(module, attr)
        setattr(module, attr, corrupt(original))
        try:
            tally.run(job, 1)
        finally:
            setattr(module, attr, original)
        expect(tally.attempted == 2 and tally.failed == 1,
               f"{workload}: corrupted {attr} not counted: {tally.failed} failed")
        print(f"ok   {workload:12s} corrupted {attr} counted as failed: {tally.failures[0][:90]}")


def check_bare_directory_refused() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "sweep-s1", 0)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok   bare directory refused with exit code {proc.returncode}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_result_lines(spec)
    check_corruption_counted()
    check_bare_directory_refused()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
