import csv
import threading
import tracemalloc

import numpy as np
import pytest

from ffspread import analysis, decoder, slope
from ffspread.analysis import (DEFAULT_GRID, ExitCurve, ese_curve, exit_ese,
                               exit_ffdes_approx, exit_ffdes_exact,
                               ffdes_approx_curve, ffdes_exact_curve,
                               tunnel_check, write_curves_csv)
from ffspread.slope import g_closed_form, g_oracle

SAMPLES = 20_000


def _traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _on_threads(cpu_share, point) -> list:
    """``point()`` sampled on 1, 2 and 3 threads."""
    results = []
    for n in (1, 2, 3):
        cpu_share(n)
        results.append(point())
    return results


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

    @pytest.mark.parametrize("m_a", [np.nan, np.inf])
    def test_rejects_non_finite_prior_mean(self, m_a):
        with pytest.raises(ValueError, match="m_a must be finite"):
            exit_ffdes_exact(m_a, 2, 4)

    def test_sub_batches_leave_the_result_unchanged(self, cpu_share, monkeypatch):
        # 3 samples per sub-batch: a full chunk and the 700-sample one end on a
        # 1-row sub-batch, and the point is the same on 1, 2 and 3 threads
        monkeypatch.setattr(analysis, "KERNEL_ENTRIES", 100)
        one, two, three = _on_threads(cpu_share, lambda: exit_ffdes_exact(
            2.0, 3, 4, samples=2 * analysis.CHUNK + 700, seed=5))
        assert two == one and three == one

    def test_one_kernel_per_point(self, monkeypatch):
        builds = []
        init = decoder._CodeKernel.__init__

        def counted(self, *args):
            builds.append(None)
            init(self, *args)
        monkeypatch.setattr(decoder._CodeKernel, "__init__", counted)
        exit_ffdes_exact(2.0, 3, 4, samples=3 * analysis.CHUNK, seed=1)
        assert len(builds) == 1

    def test_large_field_point_memory_is_bounded(self):
        # one 4096-sample chunk at s=7 peaked at 265 MiB with a single kernel
        assert _traced_peak(lambda: exit_ffdes_exact(2.0, 7, 8, samples=4096, seed=1)) < 100 << 20

    def test_two_threads_stay_within_the_bound(self, cpu_share):
        cpu_share(2)
        peak = _traced_peak(lambda: exit_ffdes_exact(2.0, 7, 8, samples=2 * analysis.CHUNK,
                                                     seed=1))
        assert peak < 100 << 20

    def test_threads_share_the_kernel_budget(self, cpu_share):
        # serial, with 2^20 kernel entries per sub-batch, this point peaked at 48 MiB
        cpu_share(2)
        assert _traced_peak(lambda: exit_ffdes_exact(2.0, 6, 8, samples=8192, seed=1)) < 48 << 20

    def test_s10_point_memory_is_bounded(self):
        # int16 mapper draws scattered into the sign tables: int64 draws and
        # their argsort took this point to 110 MiB
        assert _traced_peak(lambda: exit_ffdes_exact(2.0, 10, 8, samples=4096, seed=1)) < 96 << 20


class TestFfdesApprox:
    def test_s1_exact_line(self):
        for L in (2, 8, 16):
            m_e, se = exit_ffdes_approx(5.0, 1, L, samples=64, seed=0)
            assert m_e == (L - 1) * 5.0
            assert se == 0.0

    def test_zero_prior_gives_zero(self):
        m_e, _ = exit_ffdes_approx(0.0, 4, 8, samples=500, seed=0)
        assert m_e == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("m_a", [np.nan, np.inf])
    def test_rejects_non_finite_prior_mean(self, m_a):
        with pytest.raises(ValueError, match="m_a must be finite"):
            exit_ffdes_approx(m_a, 2, 4)

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

    def test_sub_batches_leave_the_result_unchanged(self, cpu_share, monkeypatch):
        # 4 samples per sub-batch, and the point is the same on 1, 2 and 3 threads
        monkeypatch.setattr(analysis, "KERNEL_ENTRIES", 100)
        one, two, three = _on_threads(cpu_share, lambda: exit_ffdes_approx(
            2.0, 3, 4, samples=2 * analysis.CHUNK + 700, seed=5))
        assert two == one and three == one

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


class TestPinnedStreams:
    """(mean, se) of fixed points to 12 digits: a change to any estimator's
    random stream moves them by about a standard error.  numpy's vectorized
    exp, log and tanh may differ in the last bit between CPUs, so exact
    equality is checked only on one host (``TestThreadCount``, CI's cmp)."""

    EXACT = {   # draws per sub-batch
        (4, 8, 0.5): (3.158163598089253, 0.029231547599248987),
        (4, 8, 8.0): (85.77162580452777, 0.17181209190400437),
        (4, 8, 40.0): (444.27690406363257, 0.6681813213014484),
        (6, 8, 2.0): (23.93950223115907, 0.07286678791555673),
    }
    APPROX = {   # uint16 draws per sub-batch
        (4, 8, 0.5): (3.2708500491351007, 0.03945984906691955),
        (4, 8, 8.0): (89.1385752280465, 0.18889043470895006),
        (4, 8, 40.0): (462.1717707527745, 0.6635741564216112),
        (6, 8, 2.0): (24.247389157284168, 0.09653676964596142),
    }
    ESE = {
        (4, 8, 0.5): (0.3163350148392472, 0.0003276463910067527),
        (4, 8, 8.0): (1.7517119139522306, 0.006007319420074574),
        (4, 8, 40.0): (2.499823809306312, 0.00011253994551223718),
        (6, 8, 2.0): (0.536657149287411, 0.0015897366183307688),
    }

    @pytest.mark.parametrize("s,L,m_a", list(EXACT))
    def test_exact(self, s, L, m_a):
        got = exit_ffdes_exact(m_a, s, L, 8192, seed=11)
        assert got == pytest.approx(self.EXACT[s, L, m_a], rel=1e-12)

    @pytest.mark.parametrize("s,L,m_a", list(APPROX))
    def test_approx(self, s, L, m_a):
        got = exit_ffdes_approx(m_a, s, L, 8192, seed=12)
        assert got == pytest.approx(self.APPROX[s, L, m_a], rel=1e-12)

    @pytest.mark.parametrize("s,L,m_a", list(ESE))
    def test_ese(self, s, L, m_a):
        got = exit_ese(m_a, 5.0, 8, L, 8192, seed=13)
        assert got == pytest.approx(self.ESE[s, L, m_a], rel=1e-12)


class TestWorkspace:
    @pytest.mark.parametrize("point", [exit_ffdes_exact, exit_ffdes_approx])
    def test_one_sampler_call_per_thread_and_point(self, point, cpu_share, monkeypatch):
        calls = []
        mc_mean = analysis._mc_mean

        def counted(sampler, *args, **kwargs):
            def per_thread(step):
                calls[-1].append(threading.get_ident())
                return sampler(step)
            return mc_mean(per_thread, *args, **kwargs)
        monkeypatch.setattr(analysis, "_mc_mean", counted)
        for threads in (1, 2):
            cpu_share(threads)
            for m_a in (0.5, 2.0):
                calls.append([])
                point(m_a, 3, 4, samples=3 * analysis.CHUNK, seed=1)
                assert len(calls[-1]) == len(set(calls[-1])) == threads

    @pytest.mark.parametrize("module,point", [
        (analysis, lambda: exit_ffdes_exact(2.0, 4, 8, 3 * analysis.CHUNK, seed=1)),
        (analysis, lambda: exit_ffdes_approx(2.0, 4, 8, 3 * analysis.CHUNK, seed=1)),
        (slope, lambda: g_oracle(8, 3, mode="montecarlo", samples=3 * analysis.CHUNK, seed=1)),
    ], ids=["exact", "approx", "oracle"])
    def test_sub_batch_rows_do_not_depend_on_the_thread_count(self, module, point, cpu_share,
                                                              monkeypatch):
        # 128, 112 and 128 entries per sample: sub-batches shorter than a chunk
        steps = []
        mc_mean = analysis._mc_mean

        def recorded(sampler, *args, **kwargs):
            def per_thread(step):
                steps[-1].append(step)
                return sampler(step)
            return mc_mean(per_thread, *args, **kwargs)
        monkeypatch.setattr(module, "_mc_mean", recorded)
        for threads in (1, 2, 3):
            cpu_share(threads)
            steps.append([])
            point()
            assert len(steps[-1]) == threads
        rows = {step for run in steps for step in run}
        assert len(rows) == 1 and rows.pop() < analysis.CHUNK

    def test_approx_point_memory_is_bounded(self, cpu_share):
        # 5.2 MiB measured; whole-chunk index draws took 13.9 MiB as uint16
        # and 34.5 MiB as int64
        cpu_share(2)
        assert _traced_peak(lambda: exit_ffdes_approx(2.0, 6, 8, 8192, seed=1)) < 20 << 20

    def test_large_field_approx_point_memory_is_bounded(self, cpu_share):
        # 5.0 MiB measured; whole-chunk uint16 index draws took 121 MiB
        cpu_share(2)
        assert _traced_peak(lambda: exit_ffdes_approx(2.0, 10, 8, 8192, seed=1)) < 16 << 20

    @pytest.mark.parametrize("point,workspace,tables", [
        (lambda n: exit_ffdes_exact(2.0, 10, 128, n, seed=1), 3, 2),
        (lambda n: exit_ffdes_approx(2.0, 10, 128, n, seed=1), 2, 0),
        (lambda n: exit_ese(2.0, 4.0, 131073, 8, n, seed=1), 1, 0),
    ], ids=["exact", "approx", "ese"])
    def test_points_at_the_sub_batch_edge_hold_one_workspace_per_thread(
            self, point, workspace, tables, cpu_share, monkeypatch):
        # one sample of 2^17 entries per sub-batch (exact's (128, 1024) terms,
        # the ESE's 131072 priors) and one 2-sample chunk per thread.  Each
        # thread holds its workspace in MiB (the ESE's is its draw) and at most
        # 1/2 MiB of other draws; exact also holds the 2 MiB s = 10 product
        # table.  Measured 8.7, 4.7 and 2.0 MiB after a first point
        monkeypatch.setattr(analysis, "CHUNK", 2)
        cpu_share(2)
        point(2)   # first-use imports and allocations
        bound = 2 * (workspace + 0.5) + tables
        assert _traced_peak(lambda: point(4)) < bound * (1 << 20)


class TestThreadCount:
    """Chunks sampled on 1, 2 or 3 threads give the same (mean, se)."""

    SAMPLES = 3 * analysis.CHUNK + 17   # four chunks, the last one short

    @pytest.mark.parametrize("s,L", [(s, L) for s in (1, 2, 4, 6) for L in (1, 4, 8)]
                             + [(9, 2)])
    def test_despreader_points(self, s, L, cpu_share):
        # at L = 1 an approx sample has (L-1)*Q = 0 entries; at s = 9 exact
        # marginalizes 512 field elements as one class-mass GEMM
        one, two, three = _on_threads(cpu_share, lambda: (
            exit_ffdes_exact(2.0, s, L, self.SAMPLES, seed=(s, L)),
            exit_ffdes_approx(2.0, s, L, self.SAMPLES, seed=(s, L))))
        assert two == one and three == one

    @pytest.mark.parametrize("L", [1, 4, 8])
    def test_estimator_points(self, L, cpu_share):
        one, two, three = _on_threads(
            cpu_share, lambda: exit_ese(1.5, 5.0, 8, L, self.SAMPLES, seed=L))
        assert two == one and three == one


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

    @pytest.mark.parametrize("m_a,eb_n0", [(np.nan, 4.0), (np.inf, 4.0), (1.0, np.nan),
                                           (1.0, np.inf)])
    def test_rejects_non_finite_inputs(self, m_a, eb_n0):
        with pytest.raises(ValueError, match="must be finite"):
            exit_ese(m_a, eb_n0, 8, 8)

    def test_sub_batches_match_whole_chunk_draws(self, cpu_share):
        # K - 1 = 39 priors per sample: sub-batches of 3360 rows, so each full
        # chunk is two draws, and the last, 808-sample chunk one
        m_a, eb_n0, K, L, samples, seed = 1.5, 5.0, 40, 8, 9000, 7
        acc, acc2 = 0.0, 0.0
        for c in range(-(-samples // analysis.CHUNK)):
            rng = np.random.default_rng(analysis._seed_tuple(seed, c))
            b = min(analysis.CHUNK, samples - c * analysis.CHUNK)
            t = np.tanh(rng.normal(m_a / 2.0, np.sqrt(m_a / 2.0), size=(b, K - 1)))
            v = 4.0 / (2.0 * (1.0 - t * t).sum(axis=1) + L / eb_n0)
            acc += float(v.sum())
            acc2 += float((v * v).sum())
        mean = acc / samples
        se = float(np.sqrt((acc2 - samples * mean * mean) / (samples - 1) / samples))
        for threads in (1, 2):
            cpu_share(threads)
            assert exit_ese(m_a, eb_n0, K, L, samples, seed) == (mean, se)


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

    def test_refuses_non_finite_eb_n0(self):
        with pytest.raises(ValueError, match="eb_n0 must be finite"):
            tunnel_check(2, 8, 8, np.nan, samples=2000)


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
        write_curves_csv(path, exact=exact, approx=approx)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["m_a", "m_e_exact", "se_exact", "m_e_approx", "se_approx"]
        assert [float(r["m_a"]) for r in rows] == list(grid)
        assert [float(r["m_e_exact"]) for r in rows] == exact.m_e.tolist()
        assert [float(r["se_approx"]) for r in rows] == approx.std_err.tolist()
        other = ffdes_approx_curve(1, 2, grid=(0.0, 1.0, 3.0), samples=500, seed=2)
        with pytest.raises(ValueError, match="grid"):
            write_curves_csv(tmp_path / "bad.csv", exact=exact, approx=other)

    def test_ese_csv(self, tmp_path):
        curve = ese_curve(2, 4, 5.0, grid=(0.0, 2.0), samples=500, seed=3)
        path = tmp_path / "ese.csv"
        write_curves_csv(path, ese=curve)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["m_a", "m_e_ese", "se_ese"]
        assert [float(r["m_e_ese"]) for r in rows] == curve.m_e.tolist()
