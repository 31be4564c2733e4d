import csv
import math

import numpy as np
import pytest
from scipy.stats import norm

from ffspread.cli import (MAX_CHIPS_PER_USER, BerRecord, ConfigError, FitError,
                          RunConfig, build_user_specs, fit_slope,
                          load_config_file, main, read_ber_csv, resolve_config,
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
        # inside the chip budget, but one (N, L*2^s) float64 block is ~26 GB
        cfg = RunConfig(s=12, n=100_000, l=8)
        assert cfg.s * cfg.n * cfg.l <= MAX_CHIPS_PER_USER
        with pytest.raises(ConfigError, match="despreader budget") as exc:
            cfg.validate()
        assert len(exc.value.problems) == 1
        RunConfig(s=4, n=3000, l=8).validate()  # the largest benchmark sweep
        # one symbol group, but a (2L, L) dense map of 2^25 entries
        with pytest.raises(ConfigError, match="despreader budget"):
            RunConfig(s=1, n=1, l=4096).validate()
        RunConfig(s=12, n=512, l=8).validate()

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
        cfg = resolve_config(Args())
        assert cfg.k == 3
        assert cfg.s == 2
        assert cfg.eb_n0_db == (7.0,)
        assert cfg.noiseless is True

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
        with pytest.raises(FitError, match=">= 2"):
            fit_slope([BerRecord(0.0, 1, 100, 0, 1e-3, 0.0)])


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

    @pytest.mark.parametrize("flags", [["--mapper", "weird"], ["--k", "two"],
                                       ["--noiseless", "maybe"]])
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
                                       ["--eb_n0_db", "nan"]])
    def test_exit_refuses_out_of_range(self, flags, tmp_path):
        out = tmp_path / "out"
        assert main(["exit", *flags, "--outdir", str(out)]) == 2
        assert not out.exists()

    def test_slope_subcommand(self, tmp_path):
        out = tmp_path / "slopes.csv"
        assert main(["slope", "--s_values", "1,2", "--l_values", "8",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["s"] == "1" and float(rows[0]["g_std"]) == 1.0
        assert float(rows[1]["g_std"]) == pytest.approx(1.2411, abs=1e-4)

    def test_predict_subcommand(self, tmp_path):
        out = tmp_path / "pred.csv"
        assert main(["predict", "--s", "2", "--l", "8",
                     "--eb_n0_db", "6,8", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            assert float(r["ber_estimate"]) < float(r["ber_bound"])

    @pytest.mark.parametrize("flags", [["--s", "0"], ["--s", "13"], ["--l", "0"],
                                       ["--eb_n0_db", "nan"], ["--eb_n0_db", "6,inf"]])
    def test_predict_refuses_out_of_range(self, flags, tmp_path):
        out = tmp_path / "pred.csv"
        assert main(["predict", "--s", "2", "--l", "8", *flags, "--out", str(out)]) == 2
        assert not out.exists()

    def test_byte_identical_rerun(self, tmp_path):
        args = ["exit", "--s", "1", "--l", "2", "--k", "2", "--samples", "256",
                "--seed", "9"]
        main(args + ["--outdir", str(tmp_path / "a")])
        main(args + ["--outdir", str(tmp_path / "b")])
        a = (tmp_path / "a" / "exit_s1_L2.csv").read_bytes()
        b = (tmp_path / "b" / "exit_s1_L2.csv").read_bytes()
        assert a == b
