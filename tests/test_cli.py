import argparse
import csv
import math
import os
import pathlib
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.stats import norm

from ffspread import cli
from ffspread.cli import (MAX_DESPREAD_ENTRIES, BerRecord, ConfigError, FitError,
                          RunConfig, build_user_specs, fit_slope,
                          load_config_file, main, read_ber_csv, resolve,
                          run_ber_sweep, write_ber_csv)


class TestConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_validation_collects_all_problems(self):
        cfg = RunConfig(k=0, l=-1, eb_n0_db=(), mapper="weird")
        with pytest.raises(ConfigError) as exc:
            cfg.validate()
        text = "\n".join(exc.value.problems)
        assert "k must be" in text
        assert "l must be" in text
        assert "non-empty" in text
        assert "mapper" in text
        assert len(exc.value.problems) >= 4

    def test_memory_budget(self):
        cfg = RunConfig(s=12, n=2_000_000, l=8)
        with pytest.raises(ConfigError, match="chip budget"):
            cfg.validate()

    def test_despreader_memory_budget(self):
        # inside the frame chip budget, but one (N, L*2^s) float64 block is ~26 GB
        cfg = RunConfig(k=1, s=12, n=100_000, l=8)
        assert cfg.k * cfg.s * cfg.n * cfg.l <= MAX_DESPREAD_ENTRIES
        with pytest.raises(ConfigError, match="despreader budget") as exc:
            cfg.validate()
        assert len(exc.value.problems) == 1
        RunConfig(s=4, n=3000, l=8).validate()  # the largest benchmark sweep
        # one symbol group, but a (2L, L) dense map of 2^25 entries
        with pytest.raises(ConfigError, match="despreader budget"):
            RunConfig(s=1, n=1, l=4096).validate()
        RunConfig(s=12, n=512, l=8).validate()

    def test_frame_and_trace_budgets(self):
        # one (K, T) array of 9.6 GB and of 64 GB, and a 64 GB trace
        with pytest.raises(ConfigError, match="frame chip budget"):
            RunConfig(k=100_000).validate()
        with pytest.raises(ConfigError, match="frame chip budget"):
            RunConfig(k=1000, s=1, l=8, n=10**6).validate()
        with pytest.raises(ConfigError, match="trace budget") as exc:
            RunConfig(iterations=10**9).validate()
        assert len(exc.value.problems) == 1
        # exactly at the budget: accepted (and never decoded here)
        RunConfig(k=8, s=1, l=8, n=1 << 18).validate()
        RunConfig(k=8, iterations=1 << 21).validate()
        with pytest.raises(ConfigError, match="trace budget"):
            RunConfig(k=8, iterations=(1 << 21) + 1).validate()

    def test_eb_n0_extremes(self):
        # Eb/N0 = 1e+/-300 and N0 = 1e-/+300 are normal floats; 10^-310 is not
        RunConfig(eb_n0_db=(-3000.0, 3000.0)).validate()
        for db in (-3100.0, 3100.0):
            with pytest.raises(ConfigError, match="positive normal"):
                RunConfig(eb_n0_db=(6.0, db)).validate()

    def test_config_file_and_flag_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# sweep setup\n"
            "k = 2\n"
            "s = 2\n"
            "l = 4\n"
            "eb_n0_db = 3.0, 5.0\n"
            "noiseless = true\n"
            "mapper = natural\n"
        )
        values = load_config_file(path)
        assert values == {"k": 2, "s": 2, "l": 4, "eb_n0_db": (3.0, 5.0),
                          "noiseless": True, "mapper": "natural"}

        class Args:
            config = str(path)
            k = 3  # flag overrides the file
            eb_n0_db = (7.0,)
        for f in ("s", "l", "n", "iterations", "seed", "workers", "min_errors",
                  "max_frames", "mapper", "sv", "noiseless", "outdir"):
            setattr(Args, f, None)
        cfg = RunConfig(**resolve(Args(), "simulate"))
        assert cfg.k == 3
        assert cfg.s == 2
        assert cfg.eb_n0_db == (7.0,)
        assert cfg.noiseless is True

    def test_stop_after_key_and_refusal(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("stop_after = 0\n")
        assert load_config_file(path) == {"stop_after": 0}
        assert RunConfig().stop_after > 0
        with pytest.raises(ConfigError, match="stop_after must be >= 0"):
            RunConfig(stop_after=-1).validate()

    def test_unreadable_config_file_is_a_config_error(self, tmp_path):
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(b"k = 2\n\xff\xfe\n")
        for path in (tmp_path / "missing.cfg", tmp_path, binary):
            with pytest.raises(ConfigError, match="cannot read config file"):
                load_config_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("k = 2\nvolume = 11\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("k = two\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config_file(path)


class TestFitSlope:
    def test_exact_synthetic_line(self):
        slope_true = 1.2
        records = []
        for db in (4.0, 5.0, 6.0, 7.0):
            x = 10 ** (db / 10.0)
            records.append(BerRecord(db, 1, 1000, 0, math.exp(-2 - slope_true * x), 0.0))
        assert fit_slope(records, window=(0.0, 1.0)) == pytest.approx(slope_true,
                                                                      abs=1e-12)

    def test_bpsk_curve_slope(self):
        # Q(sqrt(2x)) sampled over x in [6, 10] behaves like exp(-x)
        records = []
        for x in np.linspace(6.0, 10.0, 9):
            ber = float(norm.sf(np.sqrt(2 * x)))
            records.append(BerRecord(10 * math.log10(x), 1, 10**9, 0, ber, 0.0))
        slope = fit_slope(records, window=(1e-9, 1e-2))
        assert 0.95 <= slope <= 1.15

    def test_window_filters_records(self):
        records = [BerRecord(0.0, 1, 100, 0, 0.5, 0.0),
                   BerRecord(3.0, 1, 100, 0, 1e-3, 0.0),
                   BerRecord(6.0, 1, 100, 0, 5e-4, 0.0),
                   BerRecord(9.0, 1, 100, 0, 1e-7, 0.0)]
        slope = fit_slope(records)  # only the 1e-3 and 5e-4 rows qualify
        x = [10 ** 0.3, 10 ** 0.6]
        want = abs((math.log(5e-4) - math.log(1e-3)) / (x[1] - x[0]))
        assert slope == pytest.approx(want)

    def test_too_few_points(self):
        one_record = [BerRecord(0.0, 1, 100, 0, 1e-3, 0.0)]
        one_eb_n0 = [BerRecord(5.0, 1, 100, 0, 1e-2, 0.0), BerRecord(5.0, 1, 100, 0, 1e-3, 0.0)]
        for records in (one_record, one_eb_n0):
            with pytest.raises(FitError, match=">= 2"):
                fit_slope(records)

    def test_zero_ber_left_out(self):
        records = [BerRecord(3.0, 1, 100, 0, 1e-3, 0.0),
                   BerRecord(6.0, 1, 100, 0, 5e-4, 0.0),
                   BerRecord(9.0, 1, 100, 0, 0.0, 0.0)]
        assert fit_slope(records, window=(0.0, 1e-2)) == fit_slope(records[:2])


class TestBerSweep:
    def test_noiseless_zero_errors(self):
        cfg = RunConfig(k=1, s=1, l=1, n=64, eb_n0_db=(0.0,), iterations=1,
                        seed=3, min_errors=1, max_frames=5, noiseless=True,
                        mapper="natural", sv="all-ones")
        rec = run_ber_sweep(cfg)[0]
        assert rec.errors == 0
        assert rec.ber == 0.0
        assert rec.frames == 5  # max_frames binds when no errors occur

    def test_frame_accounting_and_stop_rule(self):
        cfg = RunConfig(k=2, s=1, l=2, n=128, eb_n0_db=(0.0,), iterations=3,
                        seed=4, min_errors=10, max_frames=50)
        rec = run_ber_sweep(cfg)[0]
        assert rec.bits == rec.frames * 2 * 1 * 128
        assert rec.errors >= 10 or rec.frames == 50
        assert rec.ber == rec.errors / rec.bits

    def test_single_user_matches_bpsk(self):
        # repetition recombines to full Eb: BER ~ Q(sqrt(2 Eb/N0))
        cfg = RunConfig(k=1, s=1, l=2, n=5000, eb_n0_db=(4.0,), iterations=1,
                        seed=5, min_errors=10**9, max_frames=20,
                        mapper="natural", sv="all-ones")
        rec = run_ber_sweep(cfg)[0]
        assert rec.bits == 100_000
        p = float(norm.sf(np.sqrt(2 * 10 ** 0.4)))
        sigma = math.sqrt(p * (1 - p) / rec.bits)
        assert abs(rec.ber - p) <= 3 * sigma

    def test_deterministic_across_worker_counts(self, tmp_path):
        base = dict(k=2, s=2, l=2, n=128, eb_n0_db=(2.0, 4.0), iterations=4,
                    seed=6, min_errors=40, max_frames=6)
        p1 = tmp_path / "w1.csv"
        p2 = tmp_path / "w2.csv"
        run_ber_sweep(RunConfig(workers=1, **base), csv_path=p1)
        run_ber_sweep(RunConfig(workers=2, **base), csv_path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_workers_capped_at_usable_cpus(self, monkeypatch, tmp_path):
        # a stub pool: a real sweep must never start 100000 processes
        pools, batches = [], []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                pools.append((max_workers, initializer, initargs))

            def map(self, fn, items):
                items = list(items)
                batches.append(len(items))
                return map(fn, items)

            def shutdown(self):
                pass

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
        base = dict(k=2, s=1, l=2, n=64, eb_n0_db=(2.0,), iterations=2, seed=6,
                    min_errors=10**9, max_frames=7)
        run_ber_sweep(RunConfig(workers=100_000, **base), csv_path=tmp_path / "many.csv")
        assert pools == [(3, cli.share_cpus, (3,))]
        assert batches == [3, 3, 1]
        run_ber_sweep(RunConfig(workers=1, **base), csv_path=tmp_path / "one.csv")
        assert len(pools) == 1  # one worker: no pool
        assert (tmp_path / "many.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        monkeypatch.setattr(cli, "usable_cpus", lambda: 1)
        run_ber_sweep(RunConfig(workers=4, **base))
        assert len(pools) == 1  # a single usable CPU decodes in-process

    def test_spec_cache_keeps_the_latest_config(self):
        base = dict(k=2, s=1, l=2, n=64, eb_n0_db=(2.0,), iterations=1,
                    min_errors=1, max_frames=1, workers=1)
        run_ber_sweep(RunConfig(seed=1, **base))
        run_ber_sweep(RunConfig(seed=2, **base))
        assert len(cli._SPEC_CACHE) == 1

    def test_worker_processes_after_threaded_frame(self, tmp_path):
        # The parent's decode pool exists when the sweep forks its workers;
        # a worker that reused it would wait forever on threads it lacks.
        script = textwrap.dedent("""
            import dataclasses
            import sys
            import numpy as np
            from ffspread import cli, decoder
            from ffspread.channel import ChannelParams

            decoder.THREAD_MIN_CHIPS = 0
            decoder._cpu_share = lambda: 2
            decoder._pin_blas = lambda: True
            cfg = cli.RunConfig(k=3, s=2, l=4, n=256, eb_n0_db=(2.0, 4.0), iterations=4,
                                seed=8, min_errors=40, max_frames=6)
            params = ChannelParams(K=3, L=4, eb_n0_db=2.0)
            y = np.random.default_rng(0).normal(size=2 * 256 * 4)
            decoder.decode_frame(y, cli.build_user_specs(cfg), params, iterations=2)
            assert decoder._pool is not None
            for workers in (1, 2):
                cli.run_ber_sweep(dataclasses.replace(cfg, workers=workers),
                                  csv_path=f"{sys.argv[1]}/w{workers}.csv")
        """)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        # a session of its own, so a hung sweep's workers can be killed with it
        with subprocess.Popen([sys.executable, "-c", script, str(tmp_path)], env=env,
                              stderr=subprocess.PIPE, text=True,
                              start_new_session=True) as proc:
            try:
                _, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                raise
        assert proc.returncode == 0, err[-2000:]
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "ber.csv"
        records = [BerRecord(4.0, 3, 768, 11, 11 / 768, 1.23)]
        write_ber_csv(path, records)
        back = read_ber_csv(path)[0]
        assert back.eb_n0_db == 4.0
        assert back.frames == 3
        assert back.bits == 768
        assert back.errors == 11
        assert back.ber == 11 / 768

    def test_user_specs_differ(self):
        cfg = RunConfig(k=4, s=2, l=4, n=32, seed=7)
        specs = build_user_specs(cfg)
        perms = {tuple(sp.interleaver.perm.tolist()) for sp in specs}
        assert len(perms) == 4


class TestMainEntry:
    def test_simulate_and_fit_round_trip(self, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--k", "1", "--s", "1", "--l", "1", "--n", "64",
                     "--eb_n0_db", "0.0", "--iterations", "1", "--seed", "3",
                     "--min_errors", "1", "--max_frames", "2",
                     "--noiseless", "true", "--mapper", "natural",
                     "--sv", "all-ones", "--outdir", str(out)])
        assert code == 0
        ber_csv = out / "ber_K1_s1_L1.csv"
        assert ber_csv.exists()
        assert (out / "system_K1_s1_L1.json").exists()
        # no usable points in the window -> runtime failure exit code
        assert main(["fit", "--input", str(ber_csv)]) == 3

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("k = 0\n")
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "missing.cfg"),
                     "--outdir", str(tmp_path / "out")])
        assert code == 2
        assert "config error: cannot read config file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [["--mapper", "weird"], ["--k", "two"],
                                       ["--noiseless", "maybe"], ["--seed", "-1"],
                                       ["--k", "100000"], ["--iterations", "1000000000"],
                                       ["--stop_after", "-1"],
                                       # Eb/N0 or N0 not a positive normal float
                                       ["--eb_n0_db", "4000"], ["--eb_n0_db", "-4000"],
                                       ["--eb_n0_db", "-3100"]])
    def test_bad_flag_exit_code(self, flags, tmp_path):
        try:
            code = main(["simulate", "--outdir", str(tmp_path), *flags])
        except SystemExit as exc:  # argparse refuses a value that does not parse
            code = exc.code
        assert code == 2
        assert not list(tmp_path.iterdir())

    def test_exit_subcommand_writes_csv(self, tmp_path):
        code = main(["exit", "--s", "1", "--l", "4", "--k", "2",
                     "--eb_n0_db", "6.0", "--samples", "512", "--seed", "1",
                     "--outdir", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "exit_s1_L4.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["m_a", "m_e_exact", "se_exact", "m_e_approx", "se_approx",
                                 "m_e_ese", "se_ese"]
        assert [float(r["m_a"]) for r in rows][:3] == [0.0, 0.25, 0.5]
        # s=1 approximation is the exact line (L-1) * m_a
        for r in rows:
            assert float(r["m_e_approx"]) == pytest.approx(3 * float(r["m_a"]))
        # upper bound restated statistically
        for r in rows:
            gap = float(r["m_e_approx"]) - float(r["m_e_exact"])
            band = 3 * math.hypot(float(r["se_exact"]), float(r["se_approx"]))
            assert gap >= -band

    @pytest.mark.parametrize("flags", [["--s", "0"], ["--s", "13"], ["--l", "0"],
                                       ["--k", "0"], ["--samples", "0"],
                                       ["--s", "0", "--samples", "0", "--k", "0"],
                                       ["--eb_n0_db", "nan"], ["--seed", "-1"],
                                       # one sample's exact terms or ESE priors
                                       # above a sub-batch's 2^17 entries
                                       ["--s", "12", "--l", "33"], ["--k", "1000000"],
                                       ["--k", "131074"], ["--s", "1", "--l", "65537"],
                                       ["--eb_n0_db", "4000"], ["--eb_n0_db", "-4000"],
                                       ["--eb_n0_db", "-3100"],
                                       # samples * (4 Eb/N0 / l)^2 overflows
                                       ["--s", "2", "--l", "2", "--k", "2", "--samples", "64",
                                        "--eb_n0_db", "1600"],
                                       # a standard error needs two samples
                                       ["--samples", "1"],
                                       # one Eb/N0 point per chart
                                       ["--eb_n0_db", "6,7"],
                                       # more samples than a float64 holds
                                       ["--s", "1", "--l", "2", "--k", "2",
                                        "--samples", "1" + "0" * 400],
                                       # more chunks than an index holds, and a
                                       # chunk list beyond memory
                                       ["--s", "1", "--l", "2", "--k", "2",
                                        "--samples", "1" + "0" * 30],
                                       ["--s", "1", "--l", "2", "--k", "2",
                                        "--samples", "1" + "0" * 20]])
    def test_exit_refuses_out_of_range(self, flags, tmp_path):
        out = tmp_path / "out"
        assert main(["exit", *flags, "--outdir", str(out)]) == 2
        assert not out.exists()

    def test_runtime_error_without_a_message_names_its_type(self, tmp_path, monkeypatch,
                                                             capsys):
        def fail(*args):
            raise MemoryError()
        monkeypatch.setattr(cli, "emit_exit_chart", fail)
        assert main(["exit", "--outdir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_exit_standard_errors_stay_finite_at_high_eb_n0(self, tmp_path):
        # 64 * (4 Eb/N0 / 2)^2 is about 2.6e302 at 1500 dB; the pytest
        # configuration turns an overflow's RuntimeWarning into a failure
        assert main(["exit", "--s", "2", "--l", "2", "--k", "2", "--samples", "64",
                     "--eb_n0_db", "1500", "--outdir", str(tmp_path)]) == 0
        with open(tmp_path / "exit_s2_L2.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(math.isfinite(float(r["se_ese"])) for r in rows)

    def test_exit_accepts_the_largest_chunk(self, tmp_path):
        # 4096 * (k - 1) and 4096 * s * l are 2^24 entries, the edge of an
        # earlier budget on a chunk's draws
        assert main(["exit", "--s", "1", "--l", "4096", "--k", "4097", "--samples", "2",
                     "--outdir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("flags", [
        # one sample's l*2^s exact terms or k-1 ESE priors fill a sub-batch
        ["--s", "12", "--l", "32"], ["--s", "1", "--l", "65536"], ["--k", "131073"],
        # refused by the chunk budget, though no sampler draws a whole chunk
        ["--s", "12", "--l", "8"], ["--k", "4098"], ["--s", "1", "--l", "4097"]])
    def test_exit_accepts_one_sample_per_sub_batch(self, flags, tmp_path):
        assert main(["exit", *flags, "--samples", "2", "--outdir", str(tmp_path)]) == 0

    def test_slope_subcommand(self, tmp_path):
        out = tmp_path / "slopes.csv"
        assert main(["slope", "--s_values", "1,2", "--l_values", "8",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["s"] == "1" and float(rows[0]["g_std"]) == 1.0
        assert float(rows[1]["g_std"]) == pytest.approx(1.2411, abs=1e-4)

    @pytest.mark.parametrize("flags", [["--s_values", "0"], ["--s_values", "13"],
                                       ["--l_values", "0"], ["--s_values", "x"],
                                       ["--l_values", "8,1.5"], ["--s_values", ""],
                                       ["--s_values", "2,0", "--l_values", "0"],
                                       # g(6, 4097) would take hours
                                       ["--s_values", "6", "--l_values", "4096"]])
    def test_slope_refuses_out_of_range(self, flags, tmp_path):
        out = tmp_path / "slopes.csv"
        assert main(["slope", "--s_values", "1,2", "--l_values", "8", *flags,
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_predict_subcommand(self, tmp_path):
        out = tmp_path / "pred.csv"
        assert main(["predict", "--s", "2", "--l", "8",
                     "--eb_n0_db", "6,8", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            assert float(r["ber_estimate"]) < float(r["ber_bound"])

    @pytest.mark.parametrize("flags", [["--s", "0"], ["--s", "13"], ["--l", "0"],
                                       ["--eb_n0_db", "nan"], ["--eb_n0_db", "6,inf"],
                                       ["--eb_n0_db", ""], ["--eb_n0_db", "6,4000"],
                                       ["--eb_n0_db", "-4000"], ["--eb_n0_db", "-3100"],
                                       # g(12, 1001) would take hours
                                       ["--s", "12", "--l", "1000"]])
    def test_predict_refuses_out_of_range(self, flags, tmp_path):
        out = tmp_path / "pred.csv"
        assert main(["predict", "--s", "2", "--l", "8", *flags, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("window", [["0", "1e-2"], ["1e-2", "1e-4"], ["nan", "1e-2"],
                                        ["1e-4", "nan"], ["1e-4", "inf"], ["1e-3", "1e-3"]])
    def test_fit_refuses_bad_window(self, window, tmp_path):
        path = tmp_path / "ber.csv"
        # a sweep whose last point saw no errors
        write_ber_csv(path, [BerRecord(6.0, 4, 4000, 8, 2e-3, 0.0),
                             BerRecord(7.0, 4, 4000, 2, 5e-4, 0.0),
                             BerRecord(8.0, 4, 4000, 0, 0.0, 0.0)])
        assert main(["fit", "--input", str(path), "--window", *window]) == 2
        assert main(["fit", "--input", str(path), "--window", "1e-4", "1e-2"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ber.csv"]

    def test_fit_refuses_a_csv_without_ber_columns(self, tmp_path, capsys):
        assert main(["exit", "--s", "1", "--l", "2", "--k", "2", "--samples", "64",
                     "--outdir", str(tmp_path)]) == 0
        path = tmp_path / "exit_s1_L2.csv"
        assert main(["fit", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path} is not a BER CSV: missing columns eb_n0_db, frames" in err

    def test_byte_identical_rerun(self, tmp_path):
        args = ["exit", "--s", "1", "--l", "2", "--k", "2", "--samples", "256",
                "--seed", "9"]
        main(args + ["--outdir", str(tmp_path / "a")])
        main(args + ["--outdir", str(tmp_path / "b")])
        a = (tmp_path / "a" / "exit_s1_L2.csv").read_bytes()
        b = (tmp_path / "b" / "exit_s1_L2.csv").read_bytes()
        assert a == b


class TestArgumentTable:
    # every command's flags, required flags and resolved defaults, in order
    PINNED = {
        "simulate": ([], ["--k", "--s", "--l", "--n", "--eb_n0_db", "--iterations",
                          "--stop_after", "--seed", "--workers", "--min_errors",
                          "--max_frames", "--mapper", "--sv", "--noiseless", "--outdir",
                          "--config"], [],
                     {"k": 8, "s": 1, "l": 8, "n": 1500, "eb_n0_db": (4.0, 5.0, 6.0, 7.0, 8.0),
                      "iterations": 50, "stop_after": 4, "seed": 1, "workers": 1,
                      "min_errors": 100, "max_frames": 20000, "mapper": "random",
                      "sv": "random", "noiseless": False, "outdir": "."}),
        "exit": ([], ["--s", "--l", "--k", "--samples", "--seed", "--eb_n0_db", "--outdir"], [],
                 {"s": 2, "l": 8, "k": 8, "samples": 100000, "seed": 1, "eb_n0_db": 7.0,
                  "outdir": "."}),
        "slope": ([], ["--s_values", "--l_values", "--out"], [],
                  {"s_values": (1, 2, 4, 6), "l_values": (8, 16), "out": "slope_table.csv"}),
        "predict": (["--s", "2", "--l", "8"], ["--s", "--l", "--eb_n0_db", "--out"],
                    ["--s", "--l"],
                    {"s": 2, "l": 8, "eb_n0_db": (2.0, 4.0, 6.0, 8.0, 10.0),
                     "out": "ber_prediction.csv"}),
        "fit": (["--input", "ber.csv"], ["--input", "--window"], ["--input"],
                {"input": "ber.csv", "window": (1e-4, 1e-2)}),
    }

    @pytest.mark.parametrize("command", PINNED)
    def test_flags_and_defaults_pinned(self, command):
        argv, flags, required, defaults = self.PINNED[command]
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        actions = [a for a in sub.choices[command]._actions if "--help" not in a.option_strings]
        assert sorted(a.option_strings[0] for a in actions) == sorted(flags)
        assert [a.option_strings[0] for a in actions if a.required] == required
        # repr: 7 for 7.0, or a list for a tuple, is a change too
        assert repr(list(cli.resolve(parser.parse_args([command, *argv])).items())) == \
            repr(list(defaults.items()))

    def test_closed_form_budget_accepts_the_used_cells(self):
        # tests, demos and perfbench/jobs.py use s <= 10 with l <= 32
        cli.check("slope", {"s_values": tuple(range(1, 11)), "l_values": (32,),
                            "out": "unused.csv"})
        cli.check("predict", {"s": 10, "l": 32, "eb_n0_db": (6.0,), "out": "unused.csv"})
        assert cli._closed_form_budget(1, 10**6) == []   # s = 1: g = L - 1, no big integers

    # the largest l that slope and predict accept, at s = 2..12
    CLOSED_FORM_EDGES = {2: 5792, 3: 2364, 4: 1182, 5: 647, 6: 373, 7: 223, 8: 136,
                         9: 85, 10: 53, 11: 34, 12: 22}

    def test_predict_accepts_a_cell_inside_the_s4_edge(self, tmp_path):
        # g(4, 1026): the count polynomial's recurrence is cheap enough to leave out
        out = tmp_path / "pred.csv"
        assert main(["predict", "--s", "4", "--l", "1025", "--eb_n0_db", "6",
                     "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("s,l", CLOSED_FORM_EDGES.items())
    def test_closed_form_budget_edges(self, s, l, tmp_path):
        assert cli._closed_form_budget(s, l) == []
        out = tmp_path / "pred.csv"
        assert main(["predict", "--s", str(s), "--l", str(l + 1), "--out", str(out)]) == 2
        assert not out.exists()

    def test_fit_refuses_unreadable_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        write_ber_csv(bad, [BerRecord(6.0, 4, 4000, 8, 2e-3, 0.0),
                            BerRecord(7.0, 4, 4000, 2, 5e-4, 0.0)])
        bad.write_text(bad.read_text().replace("7.0,4,", "7.0,x,"))
        missing = tmp_path / "missing.csv"
        cases = [(missing, f"cannot read BER CSV {missing}"),
                 (tmp_path, f"cannot read BER CSV {tmp_path}"),
                 (bad, f"{bad}:3: bad value: invalid literal for int()")]
        for name, old, new in (("inf_ebn0", "7.0,4,", "inf,4,"), ("nan_ebn0", "7.0,4,", "nan,4,"),
                               ("nan_ber", "0.0005", "nan"), ("inf_ber", "0.0005", "inf")):
            path = tmp_path / f"{name}.csv"
            write_ber_csv(path, [BerRecord(6.0, 4, 4000, 8, 2e-3, 0.0),
                                 BerRecord(7.0, 4, 4000, 2, 5e-4, 0.0)])
            path.write_text(path.read_text().replace(old, new))
            cases.append((path, f"{path}:3: bad value: eb_n0_db and ber must be finite"))
        for path, message in cases:
            assert main(["fit", "--input", str(path)]) == 2, path
            assert f"config error: {message}" in capsys.readouterr().err
