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
Eb/N0 point index, frame index) and the frame-count stop rule
(``min_errors``/``max_frames``) is evaluated on the frame-index prefix,
so identical (config, seed) runs produce byte-identical CSVs regardless
of the worker count.  A sweep starts at most one worker process per
usable CPU.

Iteration stop rule: ``stop_after = m`` ends a frame's decoding once no
user's hard decision has changed for m consecutive iterations (Shao,
Lin and Fossorier, IEEE Trans. Commun. 1999), at most ``iterations``;
``stop_after = 0`` runs every iteration.  The rule is local to a frame,
so it keeps the worker-count determinism.
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
from .decoder import _TINY, decode_frame, share_cpus, usable_cpus
from .gf import MAX_DEGREE, build_field, natural_mapper, random_mapper

# entries of one float64 array: a frame's (K, T) chip arrays, its
# (iterations, K) trace, one user's largest despreader array, its
# (L*2^s, N) block or its (L*2^s, L*s) dense map, and one EXIT chunk's
# largest draw: 2^24 is 128 MiB
MAX_DESPREAD_ENTRIES = 1 << 24
BER_COLUMNS = ("eb_n0_db", "frames", "bits", "errors", "ber")


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
    stop_after: int = 4             # iteration stop rule; 0 runs every iteration
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
        if self.mapper not in ("natural", "random"):
            problems.append("mapper must be 'natural' or 'random'")
        if self.sv not in ("random", "all-ones"):
            problems.append("sv must be 'random' or 'all-ones'")
        chips = self.k * self.s * self.n * self.l
        if chips > MAX_DESPREAD_ENTRIES:
            problems.append(f"k*s*n*l = {chips} exceeds the frame chip budget "
                            f"{MAX_DESPREAD_ENTRIES} (float64 entries per (K, T) array)")
        if self.iterations * self.k > MAX_DESPREAD_ENTRIES:
            problems.append(f"iterations*k = {self.iterations * self.k} exceeds the "
                            f"trace budget {MAX_DESPREAD_ENTRIES} (float64 entries)")
        entries = (max(self.n, self.l * self.s) * self.l * 2 ** self.s
                   if 1 <= self.s <= MAX_DEGREE else 0)
        if entries > MAX_DESPREAD_ENTRIES:
            problems.append(
                f"max(n, l*s)*l*2^s = {entries} exceeds the despreader "
                f"budget {MAX_DESPREAD_ENTRIES} (float64 entries per user)"
            )
        if self.stop_after < 0:
            problems.append("stop_after must be >= 0")
        names = ("k", "s", "l", "n", "iterations", "workers", "min_errors", "max_frames")
        _check_ranges(problems, positive={name: getattr(self, name) for name in names},
                     s=self.s, eb_n0_db=self.eb_n0_db, seed=self.seed)


def _check_ranges(problems=(), *, positive: dict | None = None, s: int | None = None,
                 eb_n0_db=None, seed: int | None = None, chart: tuple | None = None,
                 grid: tuple | None = None, window: tuple | None = None) -> None:
    """Refuse out-of-range arguments before anything is written: ``positive``
    integers by name, a field degree ``s``, an ``eb_n0_db`` scalar or list, a
    ``seed``, an EXIT ``chart`` (s, l, k, samples), a slope ``grid`` (s_values,
    l_values) and a BER ``window`` (lo, hi).  One ``ConfigError`` lists these
    problems, then the caller's ``problems``."""
    found = [f"{name} must be a positive integer"
             for name, value in (positive or {}).items() if value < 1]
    if s is not None and not 1 <= s <= MAX_DEGREE:
        found.append(f"s must be in [1, {MAX_DEGREE}]")
    if seed is not None and seed < 0:
        found.append("seed must be >= 0")
    if chart is not None and 1 <= chart[0] <= MAX_DEGREE:
        c_s, c_l, c_k, _ = chart
        # largest per-chunk draws: approx's (CHUNK, 2^(s-1), l-1) uint16 indices
        # (2 bytes each), exact's (CHUNK, l, s) float64 priors and the signal
        # estimator's (CHUNK, k-1) float64 priors
        draw = analysis.CHUNK * max(2 ** (c_s - 1) * (c_l - 1), c_s * c_l, c_k - 1)
        if draw > MAX_DESPREAD_ENTRIES:
            found.append(f"one EXIT chunk draws {draw} entries, above the budget "
                         f"{MAX_DESPREAD_ENTRIES}")
    if eb_n0_db is not None:
        with np.errstate(over="ignore"):  # an overflowed ratio is refused below
            ratio = 10.0 ** (np.asarray(eb_n0_db, dtype=np.float64) / 10.0)
        if not (ratio.size and np.all((ratio >= _TINY) & (ratio <= 1.0 / _TINY))):  # nan fails
            found.append("eb_n0_db must be a non-empty list whose Eb/N0 and N0 = 1/(Eb/N0) "
                         "are positive normal floats (|eb_n0_db| below about 3076)")
        elif chart is not None and min(chart[1], chart[3]) >= 1:
            with np.errstate(over="ignore"):  # ESE values reach 4 Eb/N0 / l, at k = 1
                squares = chart[3] * (4.0 * ratio / chart[1]) ** 2
            if not np.all(np.isfinite(squares)):
                found.append("samples * (4 Eb/N0 / l)^2, the ESE's largest sum of squares, "
                             "must be a finite float64")
    if grid is not None and not (all(grid) and 1 <= min(grid[0])
                                 and max(grid[0]) <= MAX_DEGREE and min(grid[1]) >= 1):
        found.append(f"s_values must lie in [1, {MAX_DEGREE}], l_values be >= 1")
    if window is not None and not 0 < window[0] < window[1] < math.inf:
        found.append("window must be finite with 0 < lo < hi")
    if found or problems:
        raise ConfigError(found + list(problems))


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


_SPEC_CACHE: dict = {}   # the latest sweep config's specs only


def _cached_specs(cfg: RunConfig) -> list[UserCodeSpec]:
    key = (cfg.k, cfg.s, cfg.l, cfg.n, cfg.seed, cfg.mapper, cfg.sv)
    if key not in _SPEC_CACHE:
        _SPEC_CACHE.clear()   # each config's K interleavers are T int64 entries
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
    result = decode_frame(y, specs, params, iterations=cfg.iterations,
                          stop_after=cfg.stop_after)
    return int((result.decisions != info).sum())


def run_ber_sweep(cfg: RunConfig, csv_path=None) -> list[BerRecord]:
    """Simulate frames per Eb/N0 point until the frame-count stop rule fires.

    The rule (min errors or max frames) is applied to the cumulative
    error count in frame-index order; frames computed beyond the stop
    prefix are discarded, which keeps results independent of the worker
    count.  So ``workers`` is capped at the usable CPUs, for the process
    pool and the frame batches alike, without changing the results.
    """
    cfg.validate()
    records = []
    executor = None
    workers = min(cfg.workers, usable_cpus())
    if workers > 1:
        # each worker decodes on its share of the CPUs, with OpenBLAS pinned
        executor = ProcessPoolExecutor(max_workers=workers, initializer=share_cpus,
                                       initargs=(workers,))
    run = map if executor is None else executor.map
    try:
        for point_idx in range(len(cfg.eb_n0_db)):
            t0 = time.perf_counter()
            frames = errors = 0
            while errors < cfg.min_errors and frames < cfg.max_frames:
                batch = range(frames, min(frames + workers, cfg.max_frames))
                for e in run(_frame_worker, [(cfg, point_idx, fi) for fi in batch]):
                    frames += 1
                    errors += e
                    if errors >= cfg.min_errors:
                        break
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
        w.writerow(BER_COLUMNS)
        for r in records:
            w.writerow([repr(r.eb_n0_db), r.frames, r.bits, r.errors, repr(r.ber)])


def read_ber_csv(path) -> list[BerRecord]:
    """Records of a ``write_ber_csv`` file; a file without its columns is a ``ConfigError``."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in BER_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ConfigError([f"{path} is not a BER CSV: missing columns {', '.join(missing)}"])
        return [BerRecord(float(row["eb_n0_db"]), int(row["frames"]), int(row["bits"]),
                          int(row["errors"]), float(row["ber"]), wall_time=0.0) for row in reader]


def fit_slope(records: list[BerRecord], window=(1e-4, 1e-2)) -> float:
    """Least-squares |slope| of ln(BER) vs linear Eb/N0 inside the BER window.

    Zero-BER records have no logarithm and never enter the fit.
    """
    lo, hi = window
    pts = [(10.0 ** (r.eb_n0_db / 10.0), math.log(r.ber))
           for r in records if r.ber > 0 and lo <= r.ber <= hi]
    if (distinct := len({x for x, _ in pts})) < 2:   # one Eb/N0 fixes no slope
        raise FitError(
            f"need >= 2 distinct Eb/N0 values with BER in [{lo}, {hi}], found {distinct}"
        )
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    return float(abs(np.polyfit(x, y, 1)[0]))


def emit_exit_chart(s: int, l: int, k: int, eb_n0_db: float, samples: int,
                    seed, path) -> None:
    """One CSV row per grid point: despreader exact and approximate
    transfer values plus the signal-estimator curve."""
    grid = analysis.DEFAULT_GRID
    analysis.write_curves_csv(
        path,
        exact=analysis.ffdes_exact_curve(s, l, grid, samples, analysis._seed_tuple(seed, 1)),
        approx=analysis.ffdes_approx_curve(s, l, grid, samples, analysis._seed_tuple(seed, 2)),
        ese=analysis.ese_curve(k, l, 10.0 ** (eb_n0_db / 10.0), grid, samples,
                               analysis._seed_tuple(seed, 3)))


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
    """Flat ``key = value`` lines; '#' starts a comment.  A file that cannot
    be read as text is a ``ConfigError``."""
    values = {}
    problems = []
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
    for lineno, line in enumerate(lines, 1):
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


def _cmd_exit(args) -> int:
    import pathlib
    # one sample has no standard error
    _check_ranges(["samples must be >= 2"] if args.samples < 2 else (),
                  positive={"l": args.l, "k": args.k}, s=args.s, eb_n0_db=args.eb_n0_db,
                  seed=args.seed, chart=(args.s, args.l, args.k, args.samples))
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"exit_s{args.s}_L{args.l}.csv"
    emit_exit_chart(args.s, args.l, args.k, args.eb_n0_db, args.samples, args.seed, path)
    print(path)
    return 0


def _cmd_slope(args) -> int:
    try:
        s_values = [int(v) for v in args.s_values.replace(",", " ").split()]
        l_values = [int(v) for v in args.l_values.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError([f"bad slope grid value: {exc}"]) from exc
    _check_ranges(grid=(s_values, l_values))
    write_slope_table(args.out, s_values, l_values)
    print(args.out)
    return 0


def _cmd_predict(args) -> int:
    _check_ranges(positive={"l": args.l}, s=args.s, eb_n0_db=args.eb_n0_db)
    write_prediction(args.out, args.s, args.l, args.eb_n0_db)
    print(args.out)
    return 0


def _cmd_fit(args) -> int:
    _check_ranges(window=args.window)
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
