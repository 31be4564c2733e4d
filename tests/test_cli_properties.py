"""Drawn argument vectors for each subcommand, in range and out of it.

Every vector either exits 0 and writes only finite values, or exits 2 and
writes nothing; no vector exits 3, except a ``fit`` window that holds
fewer than two Eb/N0 values, which has no slope.  The refusals come from
``cli.FIELDS`` and the per-command budgets, so these tests check the
table against the commands' actual behaviour.
"""

import contextlib
import csv
import io
import json
import math
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from ffspread.cli import BerRecord, main, write_ber_csv

EB_N0 = st.one_of(st.floats(-10.0, 20.0), st.sampled_from([-3000.0, 3000.0]))


def ints(lo: int, hi: int):
    return st.integers(lo, hi).map(str)


def items(values, max_size: int = 3):
    """A list flag's text: 1 to ``max_size`` comma-separated values."""
    return st.lists(values, min_size=1, max_size=max_size).map(lambda v: ",".join(map(str, v)))


def vectors(required: dict, optional: dict, bad: dict):
    """argv of ``--name value`` pairs: every ``required`` flag and any
    ``optional`` one drawn in range, then half the time one flag set to one
    of its ``bad`` texts (out of range, or not parsing)."""
    def spoil(drawn: dict):
        return st.one_of(st.just(drawn), st.sampled_from(sorted(bad)).flatmap(
            lambda name: st.sampled_from(bad[name]).map(lambda text: {**drawn, name: text})))
    return st.fixed_dictionaries(required, optional=optional).flatmap(spoil).map(
        lambda drawn: [token for name, text in drawn.items() for token in (f"--{name}", text)])


def run(argv) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue()


def finite_csv(path: pathlib.Path) -> bool:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return bool(rows) and all(math.isfinite(float(v)) for row in rows for v in row)


def written(directory: str) -> list[pathlib.Path]:
    return sorted(p for p in pathlib.Path(directory).rglob("*") if p.is_file())


def check_run(command: str, argv: list[str], out_flag: str) -> None:
    """Exit 0 with finite CSVs (and the printed path), or exit 2 with nothing written."""
    with tempfile.TemporaryDirectory() as tmp:
        out = f"{tmp}/out" + (".csv" if out_flag == "--out" else "")
        code, stdout = run([command, *argv, out_flag, out])
        files = written(tmp)
        if code == 2:
            assert not files and not stdout, (files, stdout)
            return
        assert code == 0, (command, argv, code)
        csvs = [p for p in files if p.suffix == ".csv"]
        assert csvs and all(finite_csv(p) for p in csvs), files
        for p in files:
            if p.suffix == ".json":
                json.loads(p.read_text())


@settings(max_examples=60, deadline=None)
@given(vectors({"k": ints(1, 3), "n": ints(1, 64), "iterations": ints(1, 3),
                "max_frames": ints(1, 2), "eb_n0_db": items(EB_N0)},
               {"s": ints(1, 4), "l": ints(1, 8), "min_errors": ints(1, 5),
                "stop_after": ints(0, 3), "seed": ints(0, 5),
                "mapper": st.sampled_from(["natural", "random"]),
                "sv": st.sampled_from(["random", "all-ones"]),
                "noiseless": st.sampled_from(["true", "false"])},
               {"k": ["0", "two", "100000"], "s": ["0", "13", "1.5"], "l": ["0"], "n": ["0"],
                "eb_n0_db": ["", "nan", "6,inf", "4000", "6,x"], "iterations": ["0"],
                "stop_after": ["-1"], "seed": ["-1"], "workers": ["0"], "min_errors": ["0"],
                "max_frames": ["0", "x"], "mapper": ["weird"], "sv": ["weird"],
                "noiseless": ["maybe"]}))
def test_simulate(argv):
    check_run("simulate", argv, "--outdir")


@settings(max_examples=60, deadline=None)
@given(vectors({"samples": ints(2, 64)},
               {"s": ints(1, 5), "l": ints(1, 8), "k": ints(1, 8), "seed": ints(0, 3),
                "eb_n0_db": st.one_of(EB_N0, st.just(1500.0)).map(str)},
               {"s": ["0", "13", "x"], "l": ["0", "4097"], "k": ["0", "5000"],
                "samples": ["0", "1"], "seed": ["-1"],
                "eb_n0_db": ["nan", "6,7", "1600", "4000", ""]}))
def test_exit(argv):
    check_run("exit", argv, "--outdir")


@settings(max_examples=60, deadline=None)
@given(vectors({}, {"s_values": items(st.integers(1, 8)), "l_values": items(st.integers(1, 16))},
               {"s_values": ["", "0", "13", "x", "1,13"],
                "l_values": ["", "0", "8,1.5", "4096"]}))
def test_slope(argv):
    check_run("slope", argv, "--out")


@settings(max_examples=60, deadline=None)
@given(vectors({"s": ints(1, 8), "l": ints(1, 16)}, {"eb_n0_db": items(EB_N0)},
               {"s": ["0", "13", "x"], "l": ["0", "1000"], "eb_n0_db": ["", "nan", "6,inf"]}))
def test_predict(argv):
    check_run("predict", argv, "--out")


# a sweep whose last point saw no errors
BER = [(4.0, 1e-1), (5.0, 2e-2), (6.0, 3e-3), (6.0, 1e-3), (7.0, 2e-4), (8.0, 0.0)]
WINDOW_END = st.one_of(st.floats(1e-6, 1.0),
                       st.sampled_from([0.0, -1e-3, math.nan, math.inf, 1.0]))


@settings(max_examples=100, deadline=None)
@given(lo=WINDOW_END, hi=WINDOW_END)
def test_fit(lo, hi):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "ber.csv"
        write_ber_csv(path, [BerRecord(db, 4, 4000, round(ber * 4000), ber, 0.0)
                             for db, ber in BER])
        code, stdout = run(["fit", "--input", str(path), "--window", repr(lo), repr(hi)])
        assert written(tmp) == [path]
    if not 0 < lo < hi < math.inf:
        assert (code, stdout) == (2, "")
    elif len({db for db, ber in BER if ber > 0 and lo <= ber <= hi}) < 2:
        assert (code, stdout) == (3, "")   # FitError: no slope
    else:
        assert code == 0 and math.isfinite(float(stdout))
