"""Experiment orchestration and command-line front end.

Subcommands
-----------
simulate   BER sweep over Eb/N0 points (CSV per run)
exit       transfer-function chart data for one (s, L, K, Eb/N0) (CSV)
slope      closed-form slope table over (s, L) grids (CSV)
predict    asymptotic BER estimate and bound over Eb/N0 points (CSV)
fit        regression of ln(BER) against linear Eb/N0 on an existing CSV

``FIELDS`` declares each argument once: parser, range check, refusal
text.  ``COMMANDS`` lists each subcommand's fields with its defaults
(``None``: required) and its one cross-field budget; flags, config keys
and refusals all come from the two, and ``resolve`` gives a parsed
command line's checked values as one dict.  ``simulate`` also reads a
flat ``key = value`` file (``#`` comments) of ``RunConfig`` fields, which
its flags override.  Exit codes: 0 success, 2 configuration error
(refused before anything is written), 3 runtime failure.

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
import pathlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, slope
from .channel import ChannelParams, transmit
from .codec import (UserCodeSpec, encode_user, make_interleaver, ones_spreading,
                    random_spreading)
from .decoder import _TINY, decode_frame, share_cpus, usable_cpus
from .gf import MAX_DEGREE, build_field, natural_mapper, random_mapper

# entries of one float64 array: a frame's (K, T) chip arrays, its
# (iterations, K) trace, one user's largest despreader array, its
# (L*2^s, N) block or its (L*2^s, L*s) dense map: 2^24 is 128 MiB
MAX_DESPREAD_ENTRIES = 1 << 24
# cost units of the largest exact slope g(s, l+1) that slope and predict
# evaluate (see _closed_form_budget): at most about 3.5 s per g on one core
MAX_CLOSED_FORM_COST = 1 << 27
# most samples per EXIT point: one (sum, sum of squares) per 4096-sample
# chunk, 2^20 of them
MAX_EXIT_SAMPLES = 1 << 32
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
        check("simulate", vars(self))


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
    """Records of a ``write_ber_csv`` file.  A file that cannot be read as
    text, lacks its columns or holds a value that does not parse, or a
    non-finite ``eb_n0_db`` or ``ber``, is a ``ConfigError`` naming the path
    (and the line)."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in BER_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise ConfigError([f"{path} is not a BER CSV: missing columns "
                                   f"{', '.join(missing)}"])
            records = []
            for row in reader:
                try:
                    rec = BerRecord(float(row["eb_n0_db"]), int(row["frames"]), int(row["bits"]),
                                    int(row["errors"]), float(row["ber"]), wall_time=0.0)
                    if not (math.isfinite(rec.eb_n0_db) and math.isfinite(rec.ber)):
                        raise ValueError("eb_n0_db and ber must be finite")
                    records.append(rec)
                except (TypeError, ValueError) as exc:   # a short row reads None
                    raise ConfigError([f"{path}:{reader.line_num}: bad value: {exc}"]) from exc
            return records
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError([f"cannot read BER CSV {path}: {exc}"]) from exc


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
# arguments: one table of fields, one list of fields per command
# ---------------------------------------------------------------------------

def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _normal_eb_n0(eb_n0_db) -> bool:
    """Eb/N0 and N0 = 1/(Eb/N0) are positive normal floats, for one value or a non-empty list."""
    with np.errstate(over="ignore"):  # an overflowed ratio is refused below
        ratio = 10.0 ** (np.asarray(eb_n0_db, dtype=np.float64) / 10.0)
    return bool(ratio.size and np.all((ratio >= _TINY) & (ratio <= 1.0 / _TINY)))  # nan fails


class Field(NamedTuple):
    """One argument: its parser (see ``_parser``), range check and refusal text."""
    parse: Callable
    check: Callable = lambda value: True
    problem: str = ""
    nargs: int | None = None


FIELDS = {
    **{name: Field(int, lambda value: value >= 1, f"{name} must be a positive integer")
       for name in ("k", "l", "n", "iterations", "workers", "min_errors", "max_frames")},
    "s": Field(int, lambda s: 1 <= s <= MAX_DEGREE, f"s must be in [1, {MAX_DEGREE}]"),
    # one sample has no standard error
    "samples": Field(int, lambda samples: 2 <= samples <= MAX_EXIT_SAMPLES,
                     f"samples must be in [2, {MAX_EXIT_SAMPLES}]"),
    "seed": Field(int, lambda seed: seed >= 0, "seed must be >= 0"),
    "stop_after": Field(int, lambda m: m >= 0, "stop_after must be >= 0"),
    "eb_n0_db": Field(float, _normal_eb_n0,
                      "eb_n0_db must be a non-empty list whose Eb/N0 and N0 = 1/(Eb/N0) "
                      "are positive normal floats (|eb_n0_db| below about 3076)"),
    "mapper": Field(str.strip, lambda v: v in ("natural", "random"),
                    "mapper must be 'natural' or 'random'"),
    "sv": Field(str.strip, lambda v: v in ("random", "all-ones"),
                "sv must be 'random' or 'all-ones'"),
    "noiseless": Field(_parse_bool),
    "s_values": Field(int, lambda s: bool(s) and 1 <= min(s) <= max(s) <= MAX_DEGREE,
                      f"s_values must be a non-empty list in [1, {MAX_DEGREE}]"),
    "l_values": Field(int, lambda l: bool(l) and min(l) >= 1,
                      "l_values must be a non-empty list of positive integers"),
    "window": Field(float, lambda window: 0 < window[0] < window[1] < math.inf,
                    "window must be finite with 0 < lo < hi", nargs=2),
    **{name: Field(str) for name in ("outdir", "out", "input")},
}


def _simulate_budget(v: dict) -> list[str]:
    """A frame's (K, T) chip arrays, its (iterations, K) trace and one user's despreader.

    The despreader's float64 (L*2^s, L*s) map and each frame thread's
    (L, 2^s, N) buffer, float32 for s > 1 (the frame despreads in float32),
    hold at most max(n, l*s)*l*2^s entries each.
    """
    k, s, l, n = (v[name] for name in "ksln")
    problems = []
    if k * s * n * l > MAX_DESPREAD_ENTRIES:
        problems.append(f"k*s*n*l = {k * s * n * l} exceeds the frame chip budget "
                        f"{MAX_DESPREAD_ENTRIES} (float64 entries per (K, T) array)")
    if v["iterations"] * k > MAX_DESPREAD_ENTRIES:
        problems.append(f"iterations*k = {v['iterations'] * k} exceeds the "
                        f"trace budget {MAX_DESPREAD_ENTRIES} (float64 entries)")
    entries = max(n, l * s) * l * 2 ** s
    if entries > MAX_DESPREAD_ENTRIES:
        problems.append(f"max(n, l*s)*l*2^s = {entries} exceeds the despreader "
                        f"budget {MAX_DESPREAD_ENTRIES} (float64 entries per user)")
    return problems


def _exit_budget(v: dict) -> list[str]:
    """One EXIT sample per sampling sub-batch, then the ESE's largest sum of squares."""
    # the largest samples: exact's (l, 2^s) terms and the ESE's k-1 priors
    entries = max(v["l"] * 2 ** v["s"], v["k"] - 1)
    if entries > analysis.KERNEL_ENTRIES:
        return [f"one EXIT sample holds max(l*2^s, k-1) = {entries} entries, above a "
                f"sub-batch's {analysis.KERNEL_ENTRIES}"]
    with np.errstate(over="ignore"):  # ESE values reach 4 Eb/N0 / l, at k = 1
        squares = v["samples"] * (4.0 * 10.0 ** (np.float64(v["eb_n0_db"]) / 10.0) / v["l"]) ** 2
    if not np.isfinite(squares):
        return ["samples * (4 Eb/N0 / l)^2, the ESE's largest sum of squares, "
                "must be a finite float64"]
    return []


def _closed_form_budget(s: int, l: int) -> list[str]:
    """Refuse a slope table or prediction whose largest exact g, g(s, l+1), costs too much."""
    # (s-1)*l power terms times l*s*2^(s-1) denominator bits
    cost = (s - 1) * s * l * l * 2 ** (s - 1)
    if cost > MAX_CLOSED_FORM_COST:
        return [f"g(s, l+1) at s = {s}, l = {l} costs {cost} units, above the closed-form "
                f"budget {MAX_CLOSED_FORM_COST} (a few seconds of big-integer arithmetic)"]
    return []


def check(command: str, values: dict) -> None:
    """Refuse out-of-range values before anything is written: one
    ``ConfigError`` lists every field that fails its range check or, once
    all pass, the problems of the command's cross-field budget."""
    problems = [FIELDS[name].problem for name, value in values.items()
                if not FIELDS[name].check(value)] or COMMANDS[command].budget(values)
    if problems:
        raise ConfigError(problems)


def _parser(name: str, default) -> Callable:
    """A field's parser for one flag or config value: a tuple default marks a list
    of comma- or space-separated items, unless the field takes ``nargs`` tokens."""
    parse = FIELDS[name].parse
    if not isinstance(default, tuple) or FIELDS[name].nargs:
        return parse

    def items(raw: str) -> tuple:
        return tuple(parse(v) for v in raw.replace(",", " ").split())
    items.__name__ = f"{parse.__name__} list"
    return items


def load_config_file(path) -> dict:
    """Flat ``key = value`` lines of ``simulate`` fields; '#' starts a comment.
    A file that cannot be read as text is a ``ConfigError``."""
    defaults = COMMANDS["simulate"].fields
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
        if key not in defaults:
            problems.append(f"{path}:{lineno}: unknown key {key!r}")
            continue
        try:
            values[key] = _parser(key, defaults[key])(raw)
        except ValueError as exc:
            raise ConfigError([f"bad value for {key}: {exc}"]) from exc
    if problems:
        raise ConfigError(problems)
    return values


def resolve(args: argparse.Namespace, command: str | None = None) -> dict:
    """A parsed command line's checked values by field name: the command's
    defaults <- ``simulate``'s config file <- command-line flags."""
    command = command or args.command
    values = dict(COMMANDS[command].fields)
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    values.update({name: flag for name in values
                   if (flag := getattr(args, name, None)) is not None})
    check(command, values)
    return values


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command and one flag per field; a flag that does
    not parse raises ``argparse.ArgumentError``."""
    parser = argparse.ArgumentParser(
        prog="ffspread", description="finite-field spreading multiple-access experiments",
        exit_on_error=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, exit_on_error=False)
        if name == "simulate":
            p.add_argument("--config", help="flat key=value configuration file")
        for key, default in command.fields.items():   # None: not given, see resolve
            p.add_argument(f"--{key}", type=_parser(key, default), nargs=FIELDS[key].nargs,
                           required=default is None)
    return parser


def _cmd_simulate(**values) -> int:
    cfg = RunConfig(**values)
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


def _cmd_exit(s, l, k, samples, seed, eb_n0_db, outdir) -> int:
    path = pathlib.Path(outdir) / f"exit_s{s}_L{l}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    emit_exit_chart(s, l, k, eb_n0_db, samples, seed, path)
    print(path)
    return 0


def _cmd_slope(s_values, l_values, out) -> int:
    write_slope_table(out, s_values, l_values)
    print(out)
    return 0


def _cmd_predict(s, l, eb_n0_db, out) -> int:
    write_prediction(out, s, l, eb_n0_db)
    print(out)
    return 0


def _cmd_fit(input, window) -> int:
    print(repr(fit_slope(read_ber_csv(input), window=tuple(window))))
    return 0


class Command(NamedTuple):
    help: str
    fields: dict                           # field name -> default; None: a required flag
    run: Callable                          # the resolved values as keywords -> exit code
    budget: Callable = lambda values: []   # problems of values that pass their checks


COMMANDS = {
    "simulate": Command("run a BER sweep", {f.name: f.default for f in fields(RunConfig)},
                        _cmd_simulate, _simulate_budget),
    "exit": Command("transfer-function chart CSV",
                    {"s": 2, "l": 8, "k": 8, "samples": 100_000, "seed": 1,
                     "eb_n0_db": 7.0, "outdir": "."}, _cmd_exit, _exit_budget),
    "slope": Command("closed-form slope table CSV",
                     {"s_values": (1, 2, 4, 6), "l_values": (8, 16), "out": "slope_table.csv"},
                     _cmd_slope, lambda v: _closed_form_budget(max(v["s_values"]),
                                                               max(v["l_values"]))),
    "predict": Command("asymptotic BER prediction CSV",
                       {"s": None, "l": None, "eb_n0_db": (2.0, 4.0, 6.0, 8.0, 10.0),
                        "out": "ber_prediction.csv"}, _cmd_predict,
                       lambda v: _closed_form_budget(v["s"], v["l"])),
    "fit": Command("slope regression on an existing BER CSV",
                   {"input": None, "window": (1e-4, 1e-2)}, _cmd_fit),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return COMMANDS[args.command].run(**resolve(args))
    except (argparse.ArgumentError, ConfigError) as exc:
        for problem in getattr(exc, "problems", [exc]):
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure contract
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
