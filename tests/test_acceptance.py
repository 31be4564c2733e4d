"""End-to-end acceptance suite.

One test per criterion; run with ``pytest tests/test_acceptance.py -v``
for a pass/fail line each.  The full-scale multi-user BER sweep for
s = 2 is the extended tier and only runs with FFSPREAD_EXTENDED=1 in the
environment (the s = 1 sweep always runs).
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from helpers import (map_decision_oracle, map_despread_oracle,
                     random_despread_instance, repetition_idma_decoder)
from scipy.stats import norm

import ffspread.cli as cli
from ffspread.analysis import (DEFAULT_GRID, exit_ese, exit_ffdes_approx,
                               exit_ffdes_exact)
from ffspread.channel import ChannelParams, transmit
from ffspread.codec import encode_user
from ffspread.decoder import _CodeKernel, decode_frame, ffdes_block
from ffspread.slope import g_closed_form, g_oracle, standard_slope, standard_slope_exact


def _report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS  [{detail}]")


def test_01_standard_slope_table_reproduction():
    t0 = time.perf_counter()
    table = {(2, 8): 1.2411, (4, 8): 1.7002, (6, 8): 2.2095,
             (2, 16): 1.2675, (4, 16): 1.8240, (6, 16): 2.4493}
    got = {}
    for (s, L), want in table.items():
        value = standard_slope(s, L)
        got[(s, L)] = value
        assert abs(value - want) <= 1e-4, f"g_std({s},{L}) = {value:.6f} vs {want}"
    assert standard_slope_exact(1, 8) == Fraction(1)
    assert standard_slope_exact(1, 16) == Fraction(1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    detail = ", ".join(f"g_std({s},{L})={v:.6f}" for (s, L), v in got.items())
    _report("1 (slope table)", f"{detail}; {elapsed:.2f}s")


def test_02_closed_form_equals_enumeration_oracle():
    t0 = time.perf_counter()
    pairs = [(s, L) for s in (1, 2, 3) for L in (1, 2, 3)] + [(2, 4), (2, 5)]
    for s, L in pairs:
        oracle = g_oracle(s, L, mode="exact")
        assert oracle.method == "exact enumeration"
        assert g_closed_form(s, L) == oracle.value, (s, L)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("2 (slope oracle)", f"{len(pairs)} (s,L) pairs equal as rationals; "
            f"{elapsed:.1f}s")


def test_03_despreader_matches_map_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst_ext = worst_tot = 0.0
    for _ in range(1000):
        field, mapper, sv, prior = random_despread_instance(rng)
        got = ffdes_block(prior, sv, mapper)
        want = map_despread_oracle(prior, sv, mapper, field)
        worst_ext = max(worst_ext, float(np.max(np.abs(got - want))))
        # decode_frame's own decision path
        kern = _CodeKernel(field, mapper.signs, sv.elements)
        llrs = kern.total_bit_llrs(prior.reshape(-1, 1))[:, 0]
        want_tot = map_decision_oracle(prior, sv, mapper, field)
        worst_tot = max(worst_tot, float(np.max(np.abs(llrs - want_tot))))
    elapsed = time.perf_counter() - t0
    assert worst_ext < 1e-9
    assert worst_tot < 1e-9
    assert elapsed < 60.0
    _report("3 (decoder oracle)", f"1000 instances, max |diff| "
            f"{max(worst_ext, worst_tot):.2e}; {elapsed:.1f}s")


def test_04_s1_reduction_to_repetition_idma():
    rng = np.random.default_rng(4321)
    worst = 0.0
    for trial in range(100):
        K = int(rng.integers(1, 5))
        L = int(rng.integers(2, 9))
        n = 32
        specs = []
        from ffspread.codec import UserCodeSpec, make_interleaver, ones_spreading
        from ffspread.gf import build_field, random_mapper
        field = build_field(1)
        for k in range(K):
            specs.append(UserCodeSpec(
                mapper=random_mapper(1, (trial, k)),
                sv=ones_spreading(field, L),
                interleaver=make_interleaver(n * L, (trial, k, 7)),
                n_symbols=n))
        params = ChannelParams(K=K, L=L, eb_n0_db=float(rng.uniform(0, 8)))
        info = rng.integers(0, 2, (K, n)) * 2 - 1
        chips = np.stack([encode_user(info[k], specs[k]) for k in range(K)])
        y = transmit(chips, params, rng)
        iters = int(rng.integers(1, 6))
        res = decode_frame(y, specs, params, iterations=iters)
        dec, llrs = repetition_idma_decoder(
            y, [sp.interleaver for sp in specs], params, iterations=iters)
        assert np.array_equal(res.decisions, dec)
        worst = max(worst, float(np.max(np.abs(res.bit_llrs - llrs))))
    assert worst < 1e-9
    _report("4 (s=1 reduction)", f"100 frames, max |LLR diff| {worst:.2e}")


def test_05_transfer_function_accuracy_band():
    t0 = time.perf_counter()
    cases = [(1, 8), (2, 8), (4, 8), (2, 16), (4, 16)]
    ratios = []
    for s, L in cases:
        for i, m_a in enumerate((1.0, 2.0, 4.0, 8.0, 10.0)):
            ex, se_ex = exit_ffdes_exact(m_a, s, L, samples=100_000,
                                         seed=(50, s, L, i))
            ap, se_ap = exit_ffdes_approx(m_a, s, L, samples=100_000,
                                          seed=(51, s, L, i))
            ratio = ap / ex
            sigma = abs(ratio) * math.hypot(se_ex / ex, se_ap / max(ap, 1e-12))
            assert 1.0 - 3 * sigma <= ratio <= 1.06 + 3 * sigma, (s, L, m_a, ratio)
            ratios.append(ratio)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report("5 (transfer accuracy)", f"25 points, ratio range "
            f"[{min(ratios):.4f}, {max(ratios):.4f}]; {elapsed:.0f}s")


def test_06_asymptotic_slope_consistency():
    t0 = time.perf_counter()
    for s, L in ((2, 8), (4, 8), (6, 8)):
        g = float(g_closed_form(s, L))
        lo, se_lo = exit_ffdes_approx(20.0, s, L, samples=100_000, seed=(60, s))
        hi, se_hi = exit_ffdes_approx(40.0, s, L, samples=100_000, seed=(60, s))
        secant = (hi - lo) / 20.0
        sigma = math.hypot(se_lo, se_hi) / 20.0
        tol = max(3 * sigma, 0.02 * g)
        assert abs(secant - g) <= tol, (s, L, secant, g)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report("6 (asymptotic slope)", f"3 spreading setups within max(3sigma,2%); "
            f"{elapsed:.0f}s")


def test_07_signal_estimator_bound():
    for eb_n0 in (4.0, 10.0):
        bound = 4.0 * eb_n0 / 8.0
        for i, m_a in enumerate(tuple(DEFAULT_GRID) + (100.0,)):
            m_e, _ = exit_ese(float(m_a), eb_n0, 8, 8, samples=100_000,
                              seed=(70, i))
            assert m_e <= bound + 1e-12
            if m_a == 100.0:
                assert abs(m_e - bound) <= 0.02 * bound
    _report("7 (estimator bound)", "bounded at all grid points, within 2% "
            "of the limit at m_a=100 for Eb/N0 in {4, 10}")


def test_08_multiuser_ber_slope_s1():
    t0 = time.perf_counter()
    cfg = cli.RunConfig(k=8, s=1, l=8, n=12000,
                        eb_n0_db=(7.25, 7.5, 7.75, 8.0, 8.25),
                        iterations=50, seed=11, workers=2,
                        min_errors=250, max_frames=60)
    records = cli.run_ber_sweep(cfg)
    slope = cli.fit_slope(records, window=(1e-4, 1e-2))
    elapsed = time.perf_counter() - t0
    assert abs(slope - 1.0625) <= 0.15, slope
    bers = ", ".join(f"{r.eb_n0_db}dB:{r.ber:.2e}" for r in records)
    _report("8 (BER slope, s=1)", f"fit {slope:.4f} vs 1.0625; {bers}; "
            f"{elapsed:.0f}s")


@pytest.mark.skipif(os.environ.get("FFSPREAD_EXTENDED") != "1",
                    reason="extended tier: set FFSPREAD_EXTENDED=1 to run the "
                           "s=2 full-scale sweep")
def test_08_multiuser_ber_slope_s2_extended():
    # points sample the low-BER decade of the window, where the fitted
    # slope is least contaminated by the subexponential prefactor and by
    # near-threshold degradation (same design as the s=1 sweep)
    t0 = time.perf_counter()
    cfg = cli.RunConfig(k=8, s=2, l=8, n=6000,
                        eb_n0_db=(6.5, 7.0, 7.5),
                        iterations=50, seed=11, workers=2,
                        min_errors=1000, max_frames=120)
    records = cli.run_ber_sweep(cfg)
    slope = cli.fit_slope(records, window=(1e-4, 1e-2))
    elapsed = time.perf_counter() - t0
    assert abs(slope - 1.2262) <= 0.15, slope
    bers = ", ".join(f"{r.eb_n0_db}dB:{r.ber:.2e}" for r in records)
    _report("8x (BER slope, s=2)", f"fit {slope:.4f} vs 1.2262; {bers}; "
            f"{elapsed:.0f}s")


def test_09_single_user_baseline():
    details = []
    for db in (2.0, 4.0, 6.0):
        cfg = cli.RunConfig(k=1, s=1, l=2, n=10000, eb_n0_db=(db,),
                            iterations=1, seed=9, workers=1,
                            min_errors=10**9, max_frames=100,
                            mapper="natural", sv="all-ones")
        rec = cli.run_ber_sweep(cfg)[0]
        assert rec.bits >= 1_000_000
        p = float(norm.sf(math.sqrt(2 * 10 ** (db / 10))))
        sigma = math.sqrt(p * (1 - p) / rec.bits)
        assert abs(rec.ber - p) <= 3 * sigma, (db, rec.ber, p)
        details.append(f"{db}dB: {rec.ber:.3e} vs {p:.3e}")
    _report("9 (single-user baseline)", "; ".join(details))


def test_10_worker_count_determinism(tmp_path):
    base = dict(k=2, s=2, l=4, n=512, eb_n0_db=(3.0, 5.0), iterations=8,
                seed=13, min_errors=60, max_frames=8)
    paths = []
    for workers in (1, 2, 3):
        path = tmp_path / f"ber_w{workers}.csv"
        cli.run_ber_sweep(cli.RunConfig(workers=workers, **base), csv_path=path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] == paths[2]
    _report("10 (determinism)", "byte-identical CSVs for worker counts 1, 2, 3")
