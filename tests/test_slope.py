import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import norm

from ffspread import analysis
from ffspread.cli import write_prediction, write_slope_table
from ffspread.slope import (EXACT_ENUM_BUDGET, _qfunc, _weight_cdf_counts, _weight_sums,
                            g_closed_form,
                            g_oracle, predict_ber, slope_report, standard_slope,
                            standard_slope_exact)

from helpers import (reference_g_oracle_exact, reference_g_oracle_montecarlo,
                     reference_weight_cdf_counts)


class TestClosedForm:
    def test_s1_is_L_minus_1(self):
        for L in (1, 2, 5, 16):
            assert g_closed_form(1, L) == Fraction(L - 1)

    def test_L1_is_zero(self):
        for s in (1, 2, 6):
            assert g_closed_form(s, 1) == Fraction(0)

    @pytest.mark.parametrize("s,L", [(1, 1), (1, 5), (2, 1), (2, 2), (3, 3), (2, 2049),
                                     (4, 1025), (5, 60), (7, 3), (10, 49), (12, 23)])
    def test_count_recurrence_matches_schoolbook_products(self, s, L):
        assert _weight_cdf_counts(s, L) == reference_weight_cdf_counts(s, L)

    def test_g22_exact_value(self):
        assert g_closed_form(2, 2) == Fraction(10, 9)

    def test_matches_enumeration_oracle(self):
        pairs = [(s, L) for s in (1, 2, 3) for L in (1, 2, 3)] + [(2, 4), (2, 5)]
        for s, L in pairs:
            oracle = g_oracle(s, L, mode="exact")
            assert g_closed_form(s, L) == oracle.value, (s, L)

    def test_s3_L2_cross_validation(self):
        # 7^4 = 2401 joint realizations, enumerated exactly
        oracle = g_oracle(3, 2, mode="exact")
        assert oracle.method == "exact enumeration"
        assert g_closed_form(3, 2) == oracle.value

    def test_monotone_in_s_and_L(self):
        for L in (3, 4, 8, 16):
            for s in (1, 2, 3, 4, 5):
                assert g_closed_form(s + 1, L) > g_closed_form(s, L)
        for s in (2, 4):
            for L in (2, 4, 8):
                assert g_closed_form(s, L + 1) > g_closed_form(s, L)

    def test_known_exception_at_L2(self):
        # at L=2 the slope decreases toward 1 as s grows: the joint-spreading
        # gain over one remaining observation shrinks with field size
        vals = [g_closed_form(s, 2) for s in (2, 3, 4, 5, 6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 1 for v in vals)

    def test_strictly_above_repetition_gain(self):
        for s in (2, 3, 6):
            for L in (2, 8, 16):
                assert g_closed_form(s, L) > Fraction(L - 1)

    def test_bounds(self):
        for s in (1, 2, 4, 6):
            for L in (1, 2, 8, 16):
                g = g_closed_form(s, L)
                assert Fraction(max(L - 1, 0)) <= g <= Fraction(s * (L - 1) + 1)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            g_closed_form(0, 2)
        with pytest.raises(ValueError):
            g_closed_form(2, 0)

    def test_table_and_predictions_compute_each_cell_once(self, tmp_path):
        # a table row asks for g(s, L) and g(s, L+1), its prediction for g(s, L+1)
        s_values, l_values = (1, 2, 3), (1, 2, 4, 8)
        g_closed_form.cache_clear()
        write_slope_table(tmp_path / "table.csv", s_values, l_values)
        for s in s_values:
            for l in l_values:
                write_prediction(tmp_path / f"prediction_{s}_{l}.csv", s, l, (4.0, 8.0))
        info = g_closed_form.cache_info()
        assert info.misses == len({(s, m) for s in s_values for l in l_values for m in (l, l + 1)})
        assert info.hits > 0


class TestOracle:
    def test_exact_budget_refusal(self):
        # (4, 4) needs 15^24 realizations, far over budget
        with pytest.raises(ValueError, match="montecarlo"):
            g_oracle(4, 4, mode="exact")
        assert (2**4 - 1) ** ((4 - 1) * 2**3) > EXACT_ENUM_BUDGET

    def test_s1_degenerate(self):
        res = g_oracle(1, 6, mode="exact")
        assert res.value == Fraction(5)

    def test_montecarlo_matches_closed_form(self):
        res = g_oracle(2, 8, mode="montecarlo", samples=200_000, seed=1)
        g = float(g_closed_form(2, 8))
        assert abs(res.value - g) < 4 * res.std_error

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            g_oracle(2, 2, mode="guess")

    @pytest.mark.parametrize("samples", [0, -5])
    def test_montecarlo_refuses_no_samples(self, samples):
        with pytest.raises(ValueError, match="samples"):
            g_oracle(2, 4, mode="montecarlo", samples=samples)

    @pytest.mark.parametrize("s, mode, samples, problem", [(2, "guess", 200_000, "mode"),
                                                           (4, "montecarlo", 0, "samples")])
    def test_L1_checks_its_arguments(self, s, mode, samples, problem):
        with pytest.raises(ValueError, match=problem):
            g_oracle(s, 1, mode=mode, samples=samples)

    @pytest.mark.parametrize("s, k", [(1, 5), (2, 10), (3, 5), (4, 4), (8, 2)])
    def test_weight_sum_table_matches_digit_decoding(self, s, k):
        m = 2**s - 1
        weights = np.array([v.bit_count() for v in range(m)])
        cur = np.arange(m**k)
        want = np.zeros(m**k, dtype=np.int64)
        for _ in range(k):
            want += weights[cur % m]
            cur //= m
        table = _weight_sums(s, k)
        assert table.dtype == np.int16 and np.array_equal(table, want)

    @pytest.mark.parametrize("s, L", [(1, L) for L in (1, 2, 9, 40)]
                             + [(2, L) for L in range(1, 9)]
                             + [(3, L) for L in range(1, 4)])
    def test_exact_matches_digit_enumeration(self, s, L):
        assert g_oracle(s, L, mode="exact").value == reference_g_oracle_exact(s, L)

    @pytest.mark.parametrize("s, L, seed", [(4, 8, 3), (4, 8, 1), (2, 8, 1), (8, 16, 1),
                                            (10, 3, 1)])
    def test_montecarlo_matches_reference_sums(self, s, L, seed):
        # 100_003 samples: 24 full chunks and a partial one; (8, 16) draws 4
        # words per sub-batch, (10, 3) one word of two single positions in
        # 256-row sub-batches
        res = g_oracle(s, L, mode="montecarlo", samples=100_003, seed=seed)
        assert (res.value, res.std_error) == reference_g_oracle_montecarlo(s, L, 100_003, seed)

    def test_montecarlo_sums_past_int16(self):
        # s(L-1) = 71992: int32 sums, some of whose groups pass 2^15 - 1
        res = g_oracle(8, 9000, mode="montecarlo", samples=10, seed=1)
        assert (res.value, res.std_error) == reference_g_oracle_montecarlo(8, 9000, 10, 1)

    def test_montecarlo_same_on_one_and_two_threads(self, cpu_share):
        results = []
        for n in (1, 2):
            cpu_share(n)
            res = g_oracle(4, 8, mode="montecarlo", samples=3 * analysis.CHUNK + 17, seed=5)
            results.append((res.value, res.std_error))
        assert results[0] == results[1]

    def test_montecarlo_chunks_run_on_the_pool(self, cpu_share, monkeypatch):
        threads = set()
        default_rng = np.random.default_rng

        def spy(seed=None):
            threads.add(threading.get_ident())
            return default_rng(seed)
        cpu_share(2)
        monkeypatch.setattr(np.random, "default_rng", spy)
        g_oracle(4, 8, mode="montecarlo", samples=4 * analysis.CHUNK, seed=5)
        assert len(threads) >= 2

    @pytest.mark.parametrize("s, L, samples, calls", [
        (4, 8, 2 * analysis.CHUNK + 17, [1, 1, 1]),
        (10, 4, analysis.CHUNK + 17, [16, 1])], ids=["4-8", "10-4"])
    def test_montecarlo_draws_one_index_per_word(self, monkeypatch, s, L, samples, calls):
        # (4, 8): a group's 7 draws are a 4-tuple and a 3-tuple, 15^7 <= 2^32, so
        # one word per 4096-row sub-batch; (10, 4): one word of three positions
        # per 256-row sub-batch
        counts = []
        default_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng, self.calls = default_rng(seed), 0
                counts.append(self)

            def integers(self, *args, **kwargs):
                self.calls += 1
                return self.rng.integers(*args, **kwargs)
        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        g_oracle(s, L, mode="montecarlo", samples=samples, seed=5)
        assert [rng.calls for rng in counts] == calls

    @pytest.mark.parametrize("s, L, seed, value, std_error", [
        (9, 3, 0, "3.434793217030621", "0.0074755242252751595"),
        (4, 2, 0, "1.0845431255337319", "0.003082633879232551")], ids=["9-3", "4-2"])
    def test_montecarlo_keeps_its_stream(self, s, L, seed, value, std_error):
        # (9, 3): one word of two single positions per 512-row sub-batch, split
        # by // and multiply-subtract; (4, 2): one single-position word per
        # chunk; values recorded with one int64 draw per word and sub-batch
        res = g_oracle(s, L, mode="montecarlo", samples=8197, seed=seed)
        assert (repr(res.value), repr(res.std_error)) == (value, std_error)

    def test_montecarlo_memory_is_bounded(self, cpu_share):
        # the whole (16384, 128, 15) chunk of int64 draws peaked at 300 MiB;
        # now each of the 4 chunks' threads holds one sub-batch, about 2.5 MiB,
        # and the call peaks at 10.3 MiB
        cpu_share(4)
        tracemalloc.start()
        try:
            g_oracle(8, 16, mode="montecarlo", samples=16384)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 << 20

    @pytest.mark.parametrize("s, L", [(12, 2), (10, 3)])
    def test_montecarlo_memory_is_bounded_at_large_s(self, cpu_share, s, L):
        # whole-chunk index arrays peaked at 197 and 64 MiB on 4 threads; now
        # each thread holds one sub-batch of at most 2^17 draws and sums
        cpu_share(4)
        tracemalloc.start()
        try:
            g_oracle(s, L, mode="montecarlo", samples=16384)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 << 20

    @pytest.mark.parametrize("s, L, bound", [(12, 2, 2 << 20), (4, 5, 5 << 17)],
                             ids=["12-2", "4-5"])
    def test_montecarlo_unsplit_words_hold_no_leading_indices(self, cpu_share, s, L, bound):
        # one tuple per word, so nothing is split: 1.54 and 0.51 MiB measured
        # on one thread, against 2.54 and 0.76 MiB with the int64 leading-index
        # workspace of (2^(s-1), step) entries
        cpu_share(1)
        g_oracle(s, L, mode="montecarlo", samples=100, seed=0)   # first-call allocations
        tracemalloc.start()
        try:
            g_oracle(s, L, mode="montecarlo", samples=4096, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_exact_enumeration_memory(self):
        # 7^8 joint realizations; the digit-by-digit enumeration peaked at 176 MiB
        tracemalloc.start()
        try:
            g_oracle(3, 3, mode="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20


class TestStandardSlope:
    def test_s1_always_one(self):
        for L in (1, 2, 8, 16):
            assert standard_slope_exact(1, L) == Fraction(1)

    def test_table_values_L8(self):
        assert round(standard_slope(2, 8), 4) == 1.2411
        assert round(standard_slope(4, 8), 4) == 1.7002
        assert round(standard_slope(6, 8), 4) == 2.2095

    def test_table_values_L16(self):
        assert round(standard_slope(2, 16), 4) == 1.2675
        assert round(standard_slope(4, 16), 4) == 1.8240
        # exact rational evaluates to 2.44924537..., one ulp under the
        # published rounding
        assert abs(standard_slope(6, 16) - 2.4493) < 1e-4

    def test_near_one_at_L1(self):
        for s in range(1, 7):
            assert abs(standard_slope(s, 1) - 1.0) <= 0.12

    def test_above_one_for_joint_spreading(self):
        for s in (2, 3, 6):
            for L in (2, 8):
                assert standard_slope(s, L) > 1.0


class TestPredictBer:
    def test_s1_is_single_user_bpsk(self):
        x = np.array([1.0, 4.0, 6.31])
        est, _ = predict_ber(1, 4, x)
        assert np.allclose(est, norm.sf(np.sqrt(2 * x)), rtol=1e-12)

    def test_qfunc_matches_normal_tail(self):
        x = np.linspace(0.0, 37.0, 20001)
        assert np.allclose(_qfunc(x), norm.sf(x), rtol=1e-13, atol=0.0)

    def test_estimate_below_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = int(rng.integers(1, 7))
            L = int(rng.integers(1, 17))
            x = float(rng.uniform(0.1, 20.0))
            est, bound = predict_ber(s, L, x)
            assert est < bound

    def test_bound_from_table_value(self):
        _, bound = predict_ber(2, 8, 8.0)
        assert bound == pytest.approx(
            math.exp(-float(standard_slope_exact(2, 8)) * 8.0), rel=1e-12)
        assert bound == pytest.approx(math.exp(-1.2411 * 8.0), rel=1e-3)

    def test_invalid_ebn0(self):
        with pytest.raises(ValueError):
            predict_ber(2, 8, 0.0)

    @pytest.mark.parametrize("x", [[math.nan], [4.0, math.nan], math.nan])
    def test_nan_ebn0_is_refused(self, x):
        with pytest.raises(ValueError, match="> 0"):
            predict_ber(4, 8, x)


class TestSlopeReport:
    def test_exact_mode_selected_when_feasible(self):
        rep = slope_report(2, 3)
        assert rep.g_oracle.method == "exact enumeration"
        assert rep.g_closed == rep.g_oracle.value
        assert rep.g_std == standard_slope(2, 3)

    @pytest.mark.parametrize("s, L, method", [
        (2, 8, "exact enumeration"), (3, 3, "exact enumeration"),
        (2, 9, "monte carlo"), (3, 4, "monte carlo")])
    def test_auto_mode_at_budget_edge(self, s, L, method):
        rep = slope_report(s, L, samples=1000)
        assert rep.g_oracle.method == method
        if method == "monte carlo":
            with pytest.raises(ValueError, match="montecarlo"):
                g_oracle(s, L, mode="exact")
        else:
            assert rep.g_oracle.value == rep.g_closed

    def test_mc_mode_selected_when_over_budget(self):
        rep = slope_report(4, 8, samples=20_000, seed=3)
        assert rep.g_oracle.method == "monte carlo"
        assert abs(rep.g_oracle.value - rep.g_closed_float) < 5 * rep.g_oracle.std_error
