"""The jobs the benchmark times and the workloads built from them.

A job has three parts:

* ``setup()`` builds what every operation reuses (field tables, user
  specs, interleavers); it runs once per process and is not timed.
* ``run_op(i)`` is one timed operation; ``i`` varies the inputs where
  the program takes a per-call seed.
* ``check(out)`` returns the problems found in that operation's output,
  an empty list when it is correct.

``units`` is the work of one operation in the unit of ``metric``, the
end-to-end metric the job feeds.  All inputs derive from the seed given
to the job; checks use tolerances that float-order changes cannot cross.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from ffspread import analysis, cli, slope

K, L, ITERATIONS = 8, 8, 50
SWEEP_EB_N0_DB = 7.5
EXIT_S, EXIT_EB_N0_DB = 4, 7.0
SLOPE_L_VALUES = (8, 16, 32)
MC_PAIR, MC_SAMPLES = (4, 8), 200_000

# acceptance criterion 1: standard slopes the table must reproduce to 1e-4
ACCEPTANCE_1 = {(2, 8): 1.2411, (4, 8): 1.7002, (6, 8): 2.2095,
                (2, 16): 1.2675, (4, 16): 1.8240, (6, 16): 2.4493}
# acceptance criterion 2: pairs whose closed form must equal exact enumeration
ACCEPTANCE_2 = tuple((s, l) for s in (1, 2, 3) for l in (1, 2, 3)) + ((2, 4), (2, 5))
# the same without (3, 3), whose 5.8M-realization enumeration dominates it
ACCEPTANCE_2_CHEAP = tuple(p for p in ACCEPTANCE_2 if p != (3, 3))
# acceptance criterion 5: prior means where approx/exact must sit in the band
BAND_M_A = (1.0, 2.0, 4.0, 8.0, 10.0)
BAND_LO, BAND_HI, BAND_SIGMAS = 1.0, 1.06, 5.0


class SweepJob:
    """One-frame ``cli.run_ber_sweep`` at K=8, L=8, 50 iterations, 7.5 dB.

    ``ber_band`` is the (low, high) frame BER accepted; the bands in
    ``_sweep`` come from per-frame BERs measured at the seed commit.
    """

    metric = "chip_updates_per_s"

    def __init__(self, s: int, n: int, ber_band: tuple[float, float], seed: int):
        self.ber_band = ber_band
        # min_errors above the bits of a frame: max_frames alone fixes the work
        self.cfg = cli.RunConfig(k=K, s=s, l=L, n=n, eb_n0_db=(SWEEP_EB_N0_DB,),
                                 iterations=ITERATIONS, seed=seed, workers=1,
                                 min_errors=K * s * n + 1, max_frames=1)
        self.units = K * s * n * L * ITERATIONS

    def setup(self) -> None:
        cli._cached_specs(self.cfg)

    def run_op(self, i: int):
        # keep each frame's DecodeResult so the bit LLRs can be checked
        results = []
        decode = cli.decode_frame

        def capture(*args, **kwargs):
            result = decode(*args, **kwargs)
            results.append(result)
            return result

        cli.decode_frame = capture
        try:
            records = cli.run_ber_sweep(self.cfg)
        finally:
            cli.decode_frame = decode
        return records, results

    def check(self, out) -> list[str]:
        records, results = out
        if len(records) != 1 or records[0].frames != 1 or len(results) != 1:
            return [f"expected one point of one frame, got {len(records)} points "
                    f"and {len(results)} decoded frames"]
        problems = []
        lo, hi = self.ber_band
        ber = records[0].ber
        if not lo <= ber <= hi:
            problems.append(f"BER {ber:.3e} outside [{lo:g}, {hi:g}]")
        res = results[0]
        if not np.all(np.isfinite(res.bit_llrs)):
            problems.append("non-finite bit LLR")
        elif not np.array_equal(res.decisions, np.where(res.bit_llrs >= 0, 1, -1)):
            problems.append("decisions disagree with the sign of the bit LLRs")
        return problems


class ExitJob:
    """``cli.emit_exit_chart`` at s=4, L=8, K=8, 7 dB over ``DEFAULT_GRID``."""

    metric = "exit_samples_per_s"

    def __init__(self, samples: int, seed: int, out_dir: Path):
        self.samples, self.seed = samples, seed
        self.path = out_dir / f"exit_{samples}.csv"
        self.units = len(analysis.DEFAULT_GRID) * samples * 3

    def setup(self) -> None:
        pass

    def run_op(self, i: int) -> Path:
        cli.emit_exit_chart(EXIT_S, L, K, EXIT_EB_N0_DB, self.samples,
                            (self.seed, i), self.path)
        return self.path

    def check(self, path: Path) -> list[str]:
        with open(path, newline="") as fh:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        if len(rows) != len(analysis.DEFAULT_GRID):
            return [f"{len(rows)} chart rows, expected {len(analysis.DEFAULT_GRID)}"]
        if not all(math.isfinite(v) for row in rows for v in row.values()):
            return ["non-finite value in the chart"]
        problems = []
        ese_limit = 4.0 * 10.0 ** (EXIT_EB_N0_DB / 10.0) / L
        for row in rows:
            if row["m_e_ese"] > ese_limit + 1e-12:
                problems.append(f"ESE {row['m_e_ese']:.6g} above 4 Eb/N0 / L at "
                                f"m_a={row['m_a']}")
            if row["m_a"] in BAND_M_A:
                ex, ap = row["m_e_exact"], row["m_e_approx"]
                ratio = ap / ex
                sigma = abs(ratio) * math.hypot(row["se_exact"] / ex,
                                                row["se_approx"] / max(ap, 1e-12))
                if not (BAND_LO - BAND_SIGMAS * sigma <= ratio
                        <= BAND_HI + BAND_SIGMAS * sigma):
                    problems.append(f"approx/exact {ratio:.4f} outside the band at "
                                    f"m_a={row['m_a']}")
        return problems


class SlopeJob:
    """Slope table and BER prediction per (s, L) cell plus slope oracles.

    Each cell is one ``write_slope_table`` row and one single-point
    ``write_prediction``; the oracles are exact enumeration on ``pairs``
    and one seeded Monte-Carlo run.
    """

    metric = "slope_cells_per_s"

    def __init__(self, s_max: int, pairs, seed: int, out_dir: Path):
        self.s_values = tuple(range(1, s_max + 1))
        self.pairs, self.seed = tuple(pairs), seed
        self.dir = out_dir / f"slope_{s_max}"
        self.units = len(self.s_values) * len(SLOPE_L_VALUES) + len(self.pairs) + 1

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)

    def _prediction_path(self, s: int, l: int) -> Path:
        return self.dir / f"prediction_s{s}_L{l}.csv"

    def run_op(self, i: int):
        cli.write_slope_table(self.dir / "slope_table.csv", self.s_values, SLOPE_L_VALUES)
        for s in self.s_values:
            for l in SLOPE_L_VALUES:
                cli.write_prediction(self._prediction_path(s, l), s, l, (SWEEP_EB_N0_DB,))
        exact = [(s, l, slope.g_closed_form(s, l), slope.g_oracle(s, l, mode="exact").value)
                 for s, l in self.pairs]
        mc = slope.g_oracle(*MC_PAIR, mode="montecarlo", samples=MC_SAMPLES,
                            seed=(self.seed, i))
        return exact, mc

    def check(self, out) -> list[str]:
        exact, mc = out
        problems = []
        with open(self.dir / "slope_table.csv", newline="") as fh:
            table = {(int(r["s"]), int(r["L"])): (float(r["g"]), float(r["g_std"]))
                     for r in csv.DictReader(fh)}
        cells = [(s, l) for s in self.s_values for l in SLOPE_L_VALUES]
        if sorted(table) != sorted(cells):
            return [f"slope table has cells {sorted(table)}, expected {cells}"]
        if not all(math.isfinite(v) for pair in table.values() for v in pair):
            problems.append("non-finite slope table value")
        for cell, want in ACCEPTANCE_1.items():
            if cell in table and abs(table[cell][1] - want) > 1e-4:
                problems.append(f"g_std{cell} = {table[cell][1]:.6f}, expected {want}")
        for l in SLOPE_L_VALUES:
            if slope.standard_slope_exact(1, l) != 1 or table[(1, l)][1] != 1.0:
                problems.append(f"standard slope at s=1, L={l} is not exactly 1")
        for s, l in cells:
            with open(self._prediction_path(s, l), newline="") as fh:
                (row,) = csv.DictReader(fh)
            est, bound = float(row["ber_estimate"]), float(row["ber_bound"])
            if not (math.isfinite(bound) and 0.0 <= est <= bound):
                problems.append(f"prediction ({s}, {l}): estimate {est} not within "
                                f"[0, bound {bound}]")
        for s, l, closed, oracle in exact:
            if not (isinstance(oracle, Fraction) and closed == oracle):
                problems.append(f"g({s}, {l}): closed form {closed} != oracle {oracle}")
        want = float(slope.g_closed_form(*MC_PAIR))
        if not abs(mc.value - want) <= 5.0 * mc.std_error:
            problems.append(f"Monte-Carlo g{MC_PAIR} = {mc.value:.5f} +- "
                            f"{mc.std_error:.5f}, closed form {want:.5f}")
        return problems


def _sweep(s, n, band):
    return lambda seed, out_dir: SweepJob(s, n, band, seed)


def _exit(samples):
    return lambda seed, out_dir: ExitJob(samples, seed, out_dir)


def _slope(s_max, pairs):
    return lambda seed, out_dir: SlopeJob(s_max, pairs, seed, out_dir)


# Seed-commit frame BERs at 7.5 dB: s=1, n=12000 gave 3.3e-4..5.4e-4 over
# 13 seeds; s=4, n=3000 gave 0..6.3e-5 over 8; s=2, n=750 gave 0..6.7e-4
# over 32.  The bands keep a factor of about 5 clear of those.
MAIN = {
    "sweep-s1": _sweep(1, 12000, (3e-5, 3e-3)),
    "sweep-s4": _sweep(4, 3000, (0.0, 5e-4)),
    "exit-chart": _exit(8192),
    "slope-table": _slope(10, ACCEPTANCE_2),
}
# Every workload reports every end-to-end metric, so each also runs
# small fixed jobs of the two kinds its main job is not.
SIDE = {
    "sweep": _sweep(2, 750, (0.0, 5e-3)),
    "exit": _exit(1024),
    "slope": _slope(8, ACCEPTANCE_2_CHEAP),
}
KIND = {"sweep-s1": "sweep", "sweep-s4": "sweep", "exit-chart": "exit",
        "slope-table": "slope"}
# small sizes for the self-test: same code paths, a second or so per job
SMALL = {
    "sweep-s1": _sweep(1, 1500, (0.0, 5e-3)),
    "sweep-s4": _sweep(4, 375, (0.0, 5e-3)),
    "exit-chart": _exit(512),
    "slope-table": _slope(6, ACCEPTANCE_2_CHEAP),
}
WORKLOADS = tuple(MAIN)


def make_jobs(workload: str, seed: int, out_dir: Path, small: bool = False):
    """The workload's main job and its side jobs."""
    main = (SMALL if small else MAIN)[workload](seed, out_dir)
    sides = [make(seed, out_dir) for kind, make in SIDE.items() if kind != KIND[workload]]
    return main, sides
