import csv
import tracemalloc

import numpy as np
import pytest

from ffspread import analysis
from ffspread.analysis import (DEFAULT_GRID, ExitCurve, ese_curve, exit_ese,
                               exit_ffdes_approx, exit_ffdes_exact,
                               ffdes_approx_curve, ffdes_exact_curve,
                               tunnel_check, write_ese_csv, write_exit_csv)
from ffspread.slope import g_closed_form

SAMPLES = 20_000


class TestFfdesExact:
    def test_zero_prior_gives_zero(self):
        m_e, se = exit_ffdes_exact(0.0, 2, 8, samples=500, seed=0)
        assert m_e == 0.0 and se == 0.0

    @pytest.mark.parametrize("L", [2, 4, 8])
    def test_s1_sums_consistent_gaussians(self, L):
        m_a = 3.0
        m_e, se = exit_ffdes_exact(m_a, 1, L, samples=SAMPLES, seed=1)
        assert abs(m_e - (L - 1) * m_a) <= 3 * se

    def test_deterministic_in_seed(self):
        a = exit_ffdes_exact(2.0, 2, 4, samples=4096, seed=9)
        b = exit_ffdes_exact(2.0, 2, 4, samples=4096, seed=9)
        assert a == b

    def test_rejects_negative_prior_mean(self):
        with pytest.raises(ValueError):
            exit_ffdes_exact(-1.0, 2, 8)

    def test_sub_batches_leave_the_result_unchanged(self, monkeypatch):
        whole = exit_ffdes_exact(2.0, 3, 4, samples=700, seed=5)
        monkeypatch.setattr(analysis, "KERNEL_ENTRIES", 100)  # 3 samples per kernel
        assert exit_ffdes_exact(2.0, 3, 4, samples=700, seed=5) == whole

    def test_large_field_point_memory_is_bounded(self):
        # one 4096-sample chunk at s=7 peaked at 265 MiB with a single kernel
        tracemalloc.start()
        try:
            exit_ffdes_exact(2.0, 7, 8, samples=4096, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 << 20


class TestFfdesApprox:
    def test_s1_exact_line(self):
        for L in (2, 8, 16):
            m_e, se = exit_ffdes_approx(5.0, 1, L, samples=64, seed=0)
            assert m_e == (L - 1) * 5.0
            assert se == 0.0

    def test_zero_prior_gives_zero(self):
        m_e, _ = exit_ffdes_approx(0.0, 4, 8, samples=500, seed=0)
        assert m_e == pytest.approx(0.0, abs=1e-12)

    def test_rate_one_gives_zero(self):
        m_e, _ = exit_ffdes_approx(7.0, 3, 1, samples=500, seed=0)
        assert m_e == pytest.approx(0.0, abs=1e-12)

    def test_upper_bounds_exact(self):
        # tight upper bound of the true transfer curve
        for m_a in (0.5, 1.0, 2.0, 4.0, 8.0):
            ex, se_ex = exit_ffdes_exact(m_a, 2, 8, samples=SAMPLES, seed=2)
            ap, se_ap = exit_ffdes_approx(m_a, 2, 8, samples=SAMPLES, seed=3)
            assert ap >= ex - 3 * np.hypot(se_ex, se_ap)

    def test_ratio_band(self):
        for (s, L) in ((2, 8), (4, 16)):
            for m_a in (0.5, 1.0, 4.0, 10.0):
                ex, se_ex = exit_ffdes_exact(m_a, s, L, samples=SAMPLES, seed=4)
                ap, se_ap = exit_ffdes_approx(m_a, s, L, samples=SAMPLES, seed=5)
                ratio = ap / ex
                sigma = ratio * np.hypot(se_ex / ex, se_ap / ap)
                assert 1.0 - 3 * sigma <= ratio <= 1.06 + 3 * sigma, (s, L, m_a)

    @pytest.mark.parametrize("s,L", [(2, 8), (4, 8), (2, 16)])
    def test_secant_slope_matches_closed_form(self, s, L):
        # common random numbers across the two evaluation points
        g = float(g_closed_form(s, L))
        lo, _ = exit_ffdes_approx(20.0, s, L, samples=SAMPLES, seed=6)
        hi, _ = exit_ffdes_approx(40.0, s, L, samples=SAMPLES, seed=6)
        secant = (hi - lo) / 20.0
        assert secant == pytest.approx(g, rel=0.02)

    def test_asymptotically_linear(self):
        grid = np.array([20.0, 25.0, 30.0, 35.0, 40.0])
        vals = np.array([exit_ffdes_approx(g, 2, 8, samples=SAMPLES, seed=7)[0]
                         for g in grid])
        coef = np.polyfit(grid, vals, 1)
        resid = vals - np.polyval(coef, grid)
        assert np.max(np.abs(resid / vals)) < 0.01

    def test_monotone_in_prior_mean(self):
        vals = [exit_ffdes_approx(g, 4, 8, samples=SAMPLES, seed=8)[0]
                for g in (0.0, 0.5, 2.0, 8.0, 20.0)]
        assert np.all(np.diff(vals) > 0)


class TestEse:
    def test_single_user_constant(self):
        for m_a in (0.0, 3.0, 50.0):
            m_e, se = exit_ese(m_a, 10.0, 1, 8, samples=100, seed=0)
            assert m_e == pytest.approx(4.0 * 10.0 / 8.0, rel=1e-12)
            assert se == 0.0

    def test_upper_bound_everywhere(self):
        bound = 4.0 * 4.0 / 8.0
        for m_a in DEFAULT_GRID:
            m_e, _ = exit_ese(float(m_a), 4.0, 8, 8, samples=5000, seed=1)
            assert m_e <= bound + 1e-12

    def test_saturates_to_bound(self):
        m_e, _ = exit_ese(100.0, 10.0, 8, 8, samples=SAMPLES, seed=2)
        assert m_e == pytest.approx(5.0, rel=0.02)

    def test_monotone_in_m_a_and_ebn0(self):
        vals = [exit_ese(m, 6.0, 8, 8, samples=SAMPLES, seed=3)[0]
                for m in (0.0, 1.0, 4.0, 16.0, 64.0)]
        assert np.all(np.diff(vals) > 0)
        by_snr = [exit_ese(4.0, x, 8, 8, samples=SAMPLES, seed=4)[0]
                  for x in (2.0, 4.0, 8.0)]
        assert np.all(np.diff(by_snr) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            exit_ese(1.0, -2.0, 8, 8)
        with pytest.raises(ValueError):
            exit_ese(1.0, 2.0, 0, 8)


class TestTunnel:
    def test_single_user_high_snr_converges(self):
        res = tunnel_check(1, 2, 1, 100.0, samples=2000, seed=0)
        assert res.converges
        assert res.stuck_at is None

    def test_rate_one_stuck_at_zero(self):
        res = tunnel_check(2, 1, 2, 50.0, samples=2000, seed=1)
        assert not res.converges
        assert res.stuck_at == pytest.approx(0.0, abs=1e-9)

    def test_multiuser_moderate_snr_stuck_at_finite_point(self):
        res = tunnel_check(1, 8, 8, 10.0 ** 0.7, samples=5000, seed=2)
        assert not res.converges
        assert 5.0 < res.stuck_at < 50.0

    def test_deterministic(self):
        a = tunnel_check(2, 8, 8, 5.0, samples=2000, seed=3)
        b = tunnel_check(2, 8, 8, 5.0, samples=2000, seed=3)
        assert a == b


class TestCurvesAndCsv:
    def test_curve_shapes_and_grid_validation(self):
        curve = ese_curve(2, 4, 5.0, grid=(0.0, 1.0, 2.0), samples=500, seed=0)
        assert curve.m_a.shape == curve.m_e.shape == curve.std_err.shape
        with pytest.raises(ValueError, match="increasing"):
            ExitCurve(m_a=np.array([0.0, 0.0]), m_e=np.zeros(2),
                      std_err=np.zeros(2), samples=1)

    def test_exit_csv_round_trip(self, tmp_path):
        grid = (0.0, 1.0, 2.0)
        exact = ffdes_exact_curve(1, 2, grid=grid, samples=500, seed=1)
        approx = ffdes_approx_curve(1, 2, grid=grid, samples=500, seed=2)
        path = tmp_path / "exit.csv"
        write_exit_csv(path, exact, approx)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["m_a"]) for r in rows] == list(grid)
        assert [float(r["m_e_approx"]) for r in rows] == approx.m_e.tolist()

    def test_ese_csv(self, tmp_path):
        curve = ese_curve(2, 4, 5.0, grid=(0.0, 2.0), samples=500, seed=3)
        path = tmp_path / "ese.csv"
        write_ese_csv(path, curve)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["m_a", "m_e", "se"]
        assert [float(r["m_e"]) for r in rows] == curve.m_e.tolist()
