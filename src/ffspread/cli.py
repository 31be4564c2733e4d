"""Experiment orchestration and command-line front end.

Subcommands
-----------
simulate   BER sweep over Eb/N0 points (CSV per run)
exit       transfer-function chart data for one (s, L, K, Eb/N0) (CSV)
slope      closed-form slope table over (s, L) grids (CSV)
predict    asymptotic BER estimate and bound over Eb/N0 points (CSV)
fit        regression of ln(BER) against linear Eb/N0 on an existing CSV

Configuration is a flat key/value text file (``key = value`` per line,
``#`` comments); every key can be overridden by a command-line flag of
the same name.  Exit codes: 0 success, 2 configuration error, 3 runtime
failure.

Determinism: per-frame random streams are seeded by (master seed,
Eb/N0 point index, frame index) and the stop rule is evaluated on the
frame-index prefix, so identical (config, seed) runs produce
byte-identical CSVs regardless of the worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import analysis, slope
from .channel import ChannelParams, transmit
from .codec import (UserCodeSpec, encode_user, make_interleaver, ones_spreading,
                    random_spreading)
from .decoder import decode_frame
from .gf import build_field, natural_mapper, random_mapper

MAX_CHIPS_PER_USER = 1 << 24
# entries of one user's largest float64 despreader array, its (L*2^s, N)
# block or its (L*2^s, L*s) dense map: 2^24 is 128 MiB
MAX_DESPREAD_ENTRIES = 1 << 24


class ConfigError(Exception):
    """Invalid run configuration; ``problems`` lists every failure."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


class FitError(RuntimeError):
    pass


@dataclass(frozen=True)
class RunConfig:
    k: int = 8                      # users
    s: int = 1                      # field degree
    l: int = 8                      # spreading length
    n: int = 1500                   # symbols per frame (s*n info bits per user)
    eb_n0_db: tuple = (4.0, 5.0, 6.0, 7.0, 8.0)
    iterations: int = 50
    seed: int = 1
    workers: int = 1
    min_errors: int = 100
    max_frames: int = 20000
    mapper: str = "random"          # natural | random
    sv: str = "random"              # random | all-ones
    noiseless: bool = False
    outdir: str = "."

    def validate(self) -> None:
        problems = []
        for name in ("k", "s", "l", "n", "iterations", "workers",
                     "min_errors", "max_frames"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be a positive integer")
        if not 1 <= self.s <= 12:
            problems.append("s must be in [1, 12]")
        if len(self.eb_n0_db) == 0:
            problems.append("eb_n0_db list must be non-empty")
        if any(not math.isfinite(v) for v in self.eb_n0_db):
            problems.append("eb_n0_db values must be finite")
        if self.mapper not in ("natural", "random"):
            problems.append("mapper must be 'natural' or 'random'")
        if self.sv not in ("random", "all-ones"):
            problems.append("sv must be 'random' or 'all-ones'")
        if self.s * self.n * self.l > MAX_CHIPS_PER_USER:
            problems.append(
                f"s*n*l = {self.s * self.n * self.l} exceeds the per-user "
                f"chip budget {MAX_CHIPS_PER_USER}"
            )
        entries = max(self.n, self.l * self.s) * self.l * 2 ** self.s if 1 <= self.s <= 12 else 0
        if entries > MAX_DESPREAD_ENTRIES:
            problems.append(
                f"max(n, l*s)*l*2^s = {entries} exceeds the despreader "
                f"budget {MAX_DESPREAD_ENTRIES} (float64 entries per user)"
            )
        if problems:
            raise ConfigError(problems)


@dataclass(frozen=True)
class BerRecord:
    eb_n0_db: float
    frames: int
    bits: int
    errors: int
    ber: float
    wall_time: float


def build_user_specs(cfg: RunConfig) -> list[UserCodeSpec]:
    """One code spec per user, seeds derived from (master seed, user index)."""
    gf_field = build_field(cfg.s)
    specs = []
    for k in range(cfg.k):
        if cfg.mapper == "natural":
            mapper = natural_mapper(cfg.s)
        else:
            mapper = random_mapper(cfg.s, seed=(cfg.seed, k, 11))
        if cfg.sv == "all-ones":
            sv = ones_spreading(gf_field, cfg.l)
        else:
            sv = random_spreading(gf_field, cfg.l, seed=(cfg.seed, k, 22))
        interleaver = make_interleaver(cfg.s * cfg.n * cfg.l, seed=(cfg.seed, k, 33))
        specs.append(UserCodeSpec(mapper=mapper, sv=sv, interleaver=interleaver,
                                  n_symbols=cfg.n))
    return specs


_SPEC_CACHE: dict = {}


def _cached_specs(cfg: RunConfig) -> list[UserCodeSpec]:
    key = (cfg.k, cfg.s, cfg.l, cfg.n, cfg.seed, cfg.mapper, cfg.sv)
    if key not in _SPEC_CACHE:
        _SPEC_CACHE[key] = build_user_specs(cfg)
    return _SPEC_CACHE[key]


def _frame_worker(args) -> int:
    """Simulate one frame; returns the info-bit error count."""
    cfg, point_idx, frame_idx = args
    specs = _cached_specs(cfg)
    params = ChannelParams(K=cfg.k, L=cfg.l, eb_n0_db=cfg.eb_n0_db[point_idx],
                           noiseless=cfg.noiseless)
    rng = np.random.default_rng((cfg.seed, 1000 + point_idx, frame_idx))
    info = rng.integers(0, 2, size=(cfg.k, cfg.s * cfg.n)) * 2 - 1
    # the chips are not kept: only y is alive while the frame decodes
    y = transmit(np.stack([encode_user(info[k], specs[k]) for k in range(cfg.k)]), params, rng)
    result = decode_frame(y, specs, params, iterations=cfg.iterations)
    return int((result.decisions != info).sum())


def run_ber_sweep(cfg: RunConfig, csv_path=None) -> list[BerRecord]:
    """Simulate frames per Eb/N0 point until the stop rule fires.

    The stop rule (min errors or max frames) is applied to the cumulative
    error count in frame-index order; frames computed beyond the stop
    prefix are discarded, which keeps results independent of the worker
    count.
    """
    cfg.validate()
    records = []
    executor = ProcessPoolExecutor(max_workers=cfg.workers) if cfg.workers > 1 else None
    try:
        for point_idx in range(len(cfg.eb_n0_db)):
            t0 = time.perf_counter()
            per_frame: list[int] = []
            cum = 0
            stop = None
            next_frame = 0
            while stop is None and next_frame < cfg.max_frames:
                hi = min(next_frame + max(cfg.workers, 1), cfg.max_frames)
                payloads = [(cfg, point_idx, fi) for fi in range(next_frame, hi)]
                if executor is None:
                    batch = [_frame_worker(p) for p in payloads]
                else:
                    batch = list(executor.map(_frame_worker, payloads))
                per_frame.extend(batch)
                for i, e in enumerate(batch, start=next_frame):
                    cum += e
                    if cum >= cfg.min_errors:
                        stop = i + 1
                        break
                next_frame = hi
            frames = stop if stop is not None else len(per_frame)
            errors = sum(per_frame[:frames])
            bits = frames * cfg.k * cfg.s * cfg.n
            records.append(BerRecord(
                eb_n0_db=float(cfg.eb_n0_db[point_idx]), frames=frames, bits=bits,
                errors=errors, ber=errors / bits,
                wall_time=time.perf_counter() - t0,
            ))
    finally:
        if executor is not None:
            executor.shutdown()
    if csv_path is not None:
        write_ber_csv(csv_path, records)
    return records


def write_ber_csv(path, records: list[BerRecord]) -> None:
    """Columns: eb_n0_db, frames, bits, errors, ber.

    Wall time stays out of the file so identical (config, seed) runs are
    byte-identical.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eb_n0_db", "frames", "bits", "errors", "ber"])
        for r in records:
            w.writerow([repr(r.eb_n0_db), r.frames, r.bits, r.errors, repr(r.ber)])


def read_ber_csv(path) -> list[BerRecord]:
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(BerRecord(
                eb_n0_db=float(row["eb_n0_db"]), frames=int(row["frames"]),
                bits=int(row["bits"]), errors=int(row["errors"]),
                ber=float(row["ber"]), wall_time=0.0,
            ))
    return records


def fit_slope(records: list[BerRecord], window=(1e-4, 1e-2)) -> float:
    """Least-squares |slope| of ln(BER) vs linear Eb/N0 inside the BER window."""
    lo, hi = window
    pts = [(10.0 ** (r.eb_n0_db / 10.0), math.log(r.ber))
           for r in records if lo <= r.ber <= hi]
    if len(pts) < 2:
        raise FitError(
            f"need >= 2 records with BER in [{lo}, {hi}], found {len(pts)}"
        )
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    return float(abs(np.polyfit(x, y, 1)[0]))


def emit_exit_chart(s: int, l: int, k: int, eb_n0_db: float, samples: int,
                    seed, path) -> None:
    """One CSV row per grid point: despreader exact and approximate
    transfer values plus the signal-estimator curve."""
    grid = analysis.DEFAULT_GRID
    exact = analysis.ffdes_exact_curve(s, l, grid, samples, analysis._seed_tuple(seed, 1))
    approx = analysis.ffdes_approx_curve(s, l, grid, samples, analysis._seed_tuple(seed, 2))
    ese = analysis.ese_curve(k, l, 10.0 ** (eb_n0_db / 10.0), grid, samples,
                             analysis._seed_tuple(seed, 3))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m_a", "m_e_exact", "se_exact", "m_e_approx", "se_approx",
                    "m_e_ese", "se_ese"])
        for i in range(len(grid)):
            w.writerow([repr(float(grid[i])),
                        repr(float(exact.m_e[i])), repr(float(exact.std_err[i])),
                        repr(float(approx.m_e[i])), repr(float(approx.std_err[i])),
                        repr(float(ese.m_e[i])), repr(float(ese.std_err[i]))])


def write_slope_table(path, s_values, l_values) -> None:
    """Columns: s, L, g, g_std."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "L", "g", "g_std"])
        for s in s_values:
            for l in l_values:
                w.writerow([s, l, repr(float(slope.g_closed_form(s, l))),
                            repr(slope.standard_slope(s, l))])


def write_prediction(path, s: int, l: int, eb_n0_db_list) -> None:
    """Columns: eb_n0_db, eb_n0_linear, ber_estimate, ber_bound."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eb_n0_db", "eb_n0_linear", "ber_estimate", "ber_bound"])
        for db in eb_n0_db_list:
            lin = 10.0 ** (db / 10.0)
            est, bound = slope.predict_ber(s, l, lin)
            w.writerow([repr(float(db)), repr(lin), repr(float(est)),
                        repr(float(bound))])


# ---------------------------------------------------------------------------
# configuration file / flag handling
# ---------------------------------------------------------------------------

def _parse_floats(raw: str) -> tuple:
    return tuple(float(v) for v in raw.replace(",", " ").split())


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# RunConfig's field annotations are strings under postponed evaluation
_PARSERS = {"int": int, "tuple": _parse_floats, "bool": _parse_bool, "str": str.strip}
_KEY_PARSERS = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}
CONFIG_KEYS = frozenset(_KEY_PARSERS)


def _parse_value(key: str, raw: str):
    try:
        return _KEY_PARSERS[key](raw)
    except ValueError as exc:
        raise ConfigError([f"bad value for {key}: {exc}"]) from exc


def load_config_file(path) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    values = {}
    problems = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                problems.append(f"{path}:{lineno}: expected 'key = value'")
                continue
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in CONFIG_KEYS:
                problems.append(f"{path}:{lineno}: unknown key {key!r}")
                continue
            values[key] = _parse_value(key, raw)
    if problems:
        raise ConfigError(problems)
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults <- config file <- command-line flags."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **load_config_file(args.config))
    overrides = {}
    for f in fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            overrides[f.name] = val
    cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One flag per ``RunConfig`` field; a value that does not parse exits with status 2."""
    p.add_argument("--config", help="flat key=value configuration file")
    for key, parse in _KEY_PARSERS.items():
        p.add_argument(f"--{key}", type=parse)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffspread",
        description="finite-field spreading multiple-access experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a BER sweep")
    _add_config_flags(p_sim)

    p_exit = sub.add_parser("exit", help="transfer-function chart CSV")
    for key, default in (("s", 2), ("l", 8), ("k", 8), ("samples", 100_000), ("seed", 1)):
        p_exit.add_argument(f"--{key}", type=int, default=default)
    p_exit.add_argument("--eb_n0_db", type=float, default=7.0)
    p_exit.add_argument("--outdir", default=".")

    p_slope = sub.add_parser("slope", help="closed-form slope table CSV")
    p_slope.add_argument("--s_values", default="1,2,4,6")
    p_slope.add_argument("--l_values", default="8,16")
    p_slope.add_argument("--out", default="slope_table.csv")

    p_pred = sub.add_parser("predict", help="asymptotic BER prediction CSV")
    p_pred.add_argument("--s", type=int, required=True)
    p_pred.add_argument("--l", type=int, required=True)
    p_pred.add_argument("--eb_n0_db", type=_parse_floats,
                        default=(2.0, 4.0, 6.0, 8.0, 10.0))
    p_pred.add_argument("--out", default="ber_prediction.csv")

    p_fit = sub.add_parser("fit", help="slope regression on an existing BER CSV")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--window", nargs=2, type=float, default=(1e-4, 1e-2))

    return parser


def _cmd_simulate(args) -> int:
    cfg = resolve_config(args)
    import pathlib
    outdir = pathlib.Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tag = f"K{cfg.k}_s{cfg.s}_L{cfg.l}"
    records = run_ber_sweep(cfg, csv_path=outdir / f"ber_{tag}.csv")
    with open(outdir / f"system_{tag}.json", "w") as fh:
        json.dump([sp.describe() for sp in _cached_specs(cfg)], fh, indent=1)
    for r in records:
        print(f"Eb/N0 {r.eb_n0_db:6.2f} dB  frames {r.frames:6d}  "
              f"errors {r.errors:6d}  BER {r.ber:.3e}  ({r.wall_time:.1f}s)",
              file=sys.stderr)
    return 0


def _check_args(args, positive: tuple[str, ...]) -> None:
    """Refuse out-of-range subcommand arguments before anything is written."""
    problems = [f"{name} must be a positive integer"
                for name in positive if getattr(args, name) < 1]
    if not 1 <= args.s <= 12:
        problems.append("s must be in [1, 12]")
    if not all(math.isfinite(v) for v in np.atleast_1d(args.eb_n0_db)):
        problems.append("eb_n0_db values must be finite")
    if problems:
        raise ConfigError(problems)


def _cmd_exit(args) -> int:
    import pathlib
    _check_args(args, ("l", "k", "samples"))
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"exit_s{args.s}_L{args.l}.csv"
    emit_exit_chart(args.s, args.l, args.k, args.eb_n0_db, args.samples, args.seed, path)
    print(path)
    return 0


def _cmd_slope(args) -> int:
    s_values = [int(v) for v in args.s_values.replace(",", " ").split()]
    l_values = [int(v) for v in args.l_values.replace(",", " ").split()]
    write_slope_table(args.out, s_values, l_values)
    print(args.out)
    return 0


def _cmd_predict(args) -> int:
    _check_args(args, ("l",))
    write_prediction(args.out, args.s, args.l, args.eb_n0_db)
    print(args.out)
    return 0


def _cmd_fit(args) -> int:
    records = read_ber_csv(args.input)
    value = fit_slope(records, window=tuple(args.window))
    print(repr(value))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "exit": _cmd_exit,
    "slope": _cmd_slope,
    "predict": _cmd_predict,
    "fit": _cmd_fit,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure contract
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
