"""ffspread benchmark: one workload, its end-to-end metrics or its per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-s1 --seed 1 --seconds 28 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
``metrics`` holds the end-to-end metrics of ``BENCHMARK.json``, measured
with no hooks installed; with ``--trace 1`` the per-layer metrics of a
separate traced run.  Every operation's output is checked and counted in
``attempted`` and ``failed``.  A record of the run, with the environment,
goes to ``.bench_out/``.  ``perfbench/README.md`` describes the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3       # fresh processes timed for setup_s; the median is reported
SIDE_SHARE = 0.2        # side-job seconds per main-job second, spread over the run
# Host-speed probe: a fixed pure-Python loop no ffspread code can change.
# On a shared host the whole machine slows and speeds up over tens of
# seconds; end-to-end timings are scaled by PROBE_REF_S / (probe seconds
# around the operation), which cancels that drift.  PROBE_REF_S is the
# probe's typical time on the 2-core x86-64 host the baselines come from.
PROBE_LOOPS, PROBE_REPEATS, PROBE_REF_S = 60_000, 5, 0.005
# Set-up drifts with the host's process start-up and page-fault cost, which
# the loop above does not see.  Each set-up process is paired with a fresh
# process importing numpy and scipy.special only, which no ffspread change
# touches, and scaled by SETUP_PROBE_REF_S / its seconds.
SETUP_PROBE = "import numpy, scipy.special; print('ready', flush=True)"
SETUP_PROBE_REF_S = 0.45


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; operations start only while they fit")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="self-test sizes")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe_s() -> float:
    """Seconds the host-speed probe takes now (median of PROBE_REPEATS)."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(measure):
    """Run ``measure()`` between two probes; returns (its result, the
    factor PROBE_REF_S / mean probe seconds that scales its timing)."""
    before = probe_s()
    result = measure()
    return result, 2.0 * PROBE_REF_S / (before + probe_s())


class Tally:
    """Operations attempted and the problems of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, job, i: int, segment=None) -> float | None:
        """Time ``job.run_op(i)`` (inside ``segment``, if given), then check it.

        Returns the wall seconds, or None when the operation raised.
        """
        self.attempted += 1
        try:
            with segment or contextlib.nullcontext():
                t0 = time.perf_counter()
                out = job.run_op(i)
                wall = time.perf_counter() - t0
            problems = job.check(out)
        except Exception:
            self.failures.append(f"{type(job).__name__} op {i}: {traceback.format_exc()}")
            return None
        if problems:
            self.failures.append(f"{type(job).__name__} op {i}: " + "; ".join(problems))
        return wall

    @property
    def failed(self) -> int:
        return len(self.failures)


def _ready_s(cmd: list[str]) -> float:
    """Seconds from starting ``cmd`` to it printing "ready"; waits for its exit."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} failed with exit code {proc.returncode}")
    return elapsed


def _setup_s(args) -> tuple[float, float]:
    """Seconds for a fresh process to set the workload up, and its scale."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.small:
        cmd.append("--small")
    probe = _ready_s([sys.executable, "-c", SETUP_PROBE])
    return _ready_s(cmd), SETUP_PROBE_REF_S / probe


def timed_run(args, main_job, sides, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics: set-up time, then rounds of one main operation
    followed by side operations, until the next round would overrun."""
    setups = [_setup_s(args) for _ in range(SETUP_REPEATS)]
    for job in (main_job, *sides):
        job.setup()
    walls = {job: [] for job in (main_job, *sides)}    # (raw seconds, scale)
    attempts = dict.fromkeys(walls, 0)

    def run(job) -> float:
        t0 = time.perf_counter()
        wall, scale = scaled(lambda: tally.run(job, attempts[job]))
        attempts[job] += 1
        if wall is not None:
            walls[job].append((wall, scale))
        return time.perf_counter() - t0

    deadline = time.perf_counter() + args.seconds
    main_s = side_s = 0.0
    while True:
        round_s = run(main_job)
        main_s += round_s
        # side operations sample the whole run, not one stretch of it
        while True:
            for job in sides:
                elapsed = run(job)
                side_s += elapsed
                round_s += elapsed
            if side_s >= SIDE_SHARE * main_s:
                break
        if time.perf_counter() + round_s > deadline:
            break
    metrics = {job.metric: statistics.median(job.units / (w * k) for w, k in ws)
               for job, ws in walls.items() if ws}
    metrics["setup_s"] = statistics.median(w * k for w, k in setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    unscaled = {job.metric: statistics.median(job.units / w for w, _ in ws)
                for job, ws in walls.items() if ws}
    unscaled["setup_s"] = statistics.median(w for w, _ in setups)
    detail = {"unscaled_metrics": unscaled, "setup_seconds_and_scale": setups,
              "op_seconds_and_scale": {f"{type(j).__name__}:{j.metric}": ws
                                       for j, ws in walls.items()}}
    return metrics, detail


def traced_run(args, main_job, tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics of the main job: a traced set-up, then operations
    alternating untraced (the overhead baseline) and traced."""
    import tracing

    rec = tracing.Recorder()
    hooks = tracing.Hooks(rec)

    @contextlib.contextmanager
    def traced(name):
        hooks.install()
        try:
            with rec.segment(name):
                yield
        finally:
            hooks.uninstall()

    with traced("setup"):
        main_job.setup()
    deadline = time.perf_counter() + args.seconds
    walls, i = {}, 0
    while i < 2 or time.perf_counter() + (wall or 0.0) <= deadline:
        wall = tally.run(main_job, i, traced(f"op{i}") if i % 2 else None)
        if wall is not None:
            walls[i] = wall
        i += 1
    untraced = [w for i, w in walls.items() if i % 2 == 0]
    metrics = tracing.per_layer(rec, hooks.absent, untraced, setup="setup")
    detail = {"absent_stages": sorted(hooks.absent), "by_caller": tracing.by_caller(rec),
              "op_seconds": walls}
    (OUT / f"trace_{args.workload}_seed{args.seed}.json").write_text(
        json.dumps({"spans": tracing.dump(rec)}))
    return metrics, detail


def _blas_threads() -> int | None:
    """OpenBLAS thread count, read from the library numpy loaded."""
    import numpy

    for lib in (Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "timer": "time.perf_counter"}


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ffspread" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} has no ffspread sources under src/ or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jobs

    if args.workload not in jobs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(jobs.WORKLOADS)}", file=sys.stderr)
        return 2
    main_job, sides = jobs.make_jobs(args.workload, args.seed, OUT, args.small)
    if args.setup_only:
        for job in (main_job, *sides):
            job.setup()
        print("ready", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    declared = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]
    tally = Tally()
    if args.trace:
        measured, detail = traced_run(args, main_job, tally)
    else:
        measured, detail = timed_run(args, main_job, sides, tally)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in measured}
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:34s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "small": args.small, "environment": environment(),
              "metrics": metrics, "attempted": tally.attempted, "failures": tally.failures,
              **detail}
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
