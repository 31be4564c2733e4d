import numpy as np
import pytest
from helpers import (lse, map_decision_oracle, map_despread_oracle,
                     random_despread_instance, repetition_idma_decoder)
from hypothesis import given, settings
from hypothesis import strategies as st

from ffspread.channel import ChannelParams, transmit
from ffspread.codec import (SpreadingVector, UserCodeSpec, encode_user,
                            make_interleaver, ones_spreading,
                            random_spreading)
from ffspread.decoder import (LLR_MAX, _CodeKernel, _lse, chip_to_symbol_llr,
                              decode_frame, ese_extrinsic, ffdes_block,
                              symbol_to_chip_llr, total_llr_and_decide,
                              variable_extrinsic, write_trace_csv)
from ffspread.gf import build_field, natural_mapper, random_mapper


@pytest.fixture(scope="module")
def gf4():
    return build_field(2)


class TestEse:
    def test_matched_filter(self):
        params = ChannelParams(K=1, L=1, eb_n0_db=10 * np.log10(0.5))  # N0 = 2
        assert ese_extrinsic(0.5, [], params) == pytest.approx(1.0)

    def test_known_interferer_cancels(self):
        params = ChannelParams(K=2, L=1, eb_n0_db=3.0)
        y = 0.37
        got = ese_extrinsic(y, [LLR_MAX], params)
        want = 4.0 * (y - 1.0) / params.n0
        assert got == pytest.approx(want, rel=1e-9)

    def test_uninformative_prior(self):
        params = ChannelParams(K=2, L=1, eb_n0_db=0.0)  # Eb/L = 1, N0 = 1
        assert ese_extrinsic(1.0, [0.0], params) == pytest.approx(4.0 / 3.0)


class TestChipToSymbol:
    def test_s1(self):
        m = natural_mapper(1)
        out = chip_to_symbol_llr([1.7], m)
        assert out.tolist() == [0.0, 1.7]

    def test_s2_hand_evaluated(self):
        m = natural_mapper(2)
        assert chip_to_symbol_llr([1.0, 2.0], m).tolist() == [0.0, 2.0, 1.0, 3.0]

    def test_zero_input(self):
        m = random_mapper(3, 1)
        assert np.all(chip_to_symbol_llr(np.zeros(3), m) == 0.0)

    def test_entry_zero_stays_zero(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            m = random_mapper(3, seed)
            out = chip_to_symbol_llr(rng.normal(size=3), m)
            assert out[0] == 0.0


class TestVariableExtrinsic:
    def test_identity_passthrough(self, gf4):
        f1 = build_field(1)
        sv = ones_spreading(f1, 2)
        vecs = np.array([[0.0, 1.0], [0.0, -2.5]])
        out = variable_extrinsic(vecs, sv, exclude=1)
        assert out.tolist() == [0.0, -2.5]

    def test_permuted_copy(self, gf4):
        sv = SpreadingVector(gf4, np.array([1, 2]))
        rng = np.random.default_rng(1)
        vecs = rng.normal(size=(2, 4))
        vecs[:, 0] = 0.0
        out = variable_extrinsic(vecs, sv, exclude=1)
        # single remaining term: input2 at index mul(lam, 2)
        expect = vecs[1, gf4.mul_table[np.arange(4), 2]]
        assert np.allclose(out, expect)

    def test_sum_of_copies(self, gf4):
        sv = ones_spreading(gf4, 3)
        v = np.array([0.0, 0.5, -1.0, 2.0])
        out = variable_extrinsic(np.tile(v, (3, 1)), sv, exclude=2)
        assert np.allclose(out, 2 * v)

    def test_exclude_range(self, gf4):
        sv = ones_spreading(gf4, 2)
        with pytest.raises(ValueError):
            variable_extrinsic(np.zeros((2, 4)), sv, exclude=3)


class TestSymbolToChip:
    def test_s1_two_term(self):
        m = natural_mapper(1)
        assert symbol_to_chip_llr([0.0, 1.3], m).tolist() == [1.3]

    def test_s2_hand_evaluated(self):
        m = natural_mapper(2)
        out = symbol_to_chip_llr([0.0, 2.0, 1.0, 3.0], m)
        assert np.allclose(out, [1.0, 2.0], atol=1e-12)

    def test_uniform_vector(self):
        m = random_mapper(2, 5)
        assert np.allclose(symbol_to_chip_llr(np.zeros(4), m), 0.0)

    def test_inverts_chip_to_symbol(self):
        # additive vectors factor exactly, so the round trip is exact
        rng = np.random.default_rng(2)
        for seed in range(10):
            m = random_mapper(3, seed)
            chips = rng.normal(size=3)
            back = symbol_to_chip_llr(chip_to_symbol_llr(chips, m), m)
            assert np.allclose(back, chips, atol=1e-9)


def _per_bit_reference(x, signs):
    """Chip LLRs by one log-sum-exp per bit class, row by row.

    ``signs`` is (Q, s) for every row, or (b, Q, s) with one mapper per
    leading index of ``x``.
    """
    out = np.empty(x.shape[:-1] + (signs.shape[-1],))
    for idx in np.ndindex(*x.shape[:-1]):
        sg = signs[idx[0]] if signs.ndim == 3 else signs
        for n in range(sg.shape[1]):
            out[idx + (n,)] = lse(x[idx][sg[:, n] > 0]) - lse(x[idx][sg[:, n] < 0])
    return out


def _marginalization_case(s, layout, rng, scale):
    """(kernel, symbol LLR vectors, signs) for one kernel layout."""
    field = build_field(s)
    b, L = 4, 3
    if layout == "per-user":
        signs = random_mapper(s, (s, 1)).signs
        sv = random_spreading(field, L, (s, 2)).elements
        x = rng.normal(0.0, scale, size=(5, L, field.q))
    else:  # one mapper and spreading vector per sample, as in the EXIT path
        signs = np.stack([random_mapper(s, (s, i)).signs for i in range(b)])
        sv = rng.integers(1, field.q, size=(b, L))
        x = rng.normal(0.0, scale, size=(b, L, field.q))
    return _CodeKernel(field, signs, sv), x, signs


class TestChipLlrsKernel:
    LAYOUTS = ("per-user", "per-sample")

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("s", range(1, 7))
    def test_matches_per_bit_reference(self, s, layout):
        rng = np.random.default_rng(40 + s)
        kern, x, signs = _marginalization_case(s, layout, rng, scale=20.0)
        np.testing.assert_allclose(kern.chip_llrs(x), _per_bit_reference(x, signs),
                                   rtol=1e-12, atol=1e-12)
        # total-LLR shape: one vector per leading index
        np.testing.assert_allclose(kern.chip_llrs(x[:, 0]),
                                   _per_bit_reference(x[:, 0], signs),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("s", range(1, 7))
    def test_underflowing_class_stays_finite(self, s, layout):
        rng = np.random.default_rng(50 + s)
        kern, x, signs = _marginalization_case(s, layout, rng, scale=1e3)
        want = _per_bit_reference(x, signs)
        assert np.any(np.abs(want) > 800.0)  # exp(-800) underflows to 0
        got = kern.chip_llrs(x)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("s", range(1, 7))
    def test_zero_vectors_give_exact_zero(self, s, layout):
        kern, x, _ = _marginalization_case(s, layout, np.random.default_rng(0), 1.0)
        assert np.all(kern.chip_llrs(np.zeros_like(x)) == 0.0)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_s1_is_a_subtraction(self, layout):
        kern, x, signs = _marginalization_case(1, layout, np.random.default_rng(3), 20.0)
        plus = signs[..., 0] > 0
        if signs.ndim == 3:
            plus = plus[:, None, :]
        want = (np.where(plus, x, 0.0).sum(-1) - np.where(plus, 0.0, x).sum(-1))[..., None]
        assert np.array_equal(kern.chip_llrs(x), want)

    def test_positive_inf_next_to_large_value(self):
        # bit classes holding +inf beside 1e300 once overflowed in exp; the
        # pytest configuration turns that RuntimeWarning into a failure
        kern, _, signs = _marginalization_case(3, "per-user", np.random.default_rng(4), 1.0)
        x = np.zeros((2, 8))
        x[:, 1] = np.inf
        x[0, 2:] = 1e300
        x[1, 2:] = -1e300
        got = kern.chip_llrs(x)
        assert np.array_equal(got, np.broadcast_to(signs[1] * np.inf, got.shape))


class TestLse:
    def test_positive_inf_row_is_inf_without_warning(self):
        x = np.array([[np.inf, 1e300], [1e300, np.inf], [np.inf, -np.inf],
                      [-np.inf, -np.inf], [0.0, 1.0]])
        got = _lse(x)
        assert got[:3].tolist() == [np.inf] * 3
        assert got[3] == -np.inf
        assert got[4] == pytest.approx(np.log1p(np.e), rel=1e-15)


class TestDenseMapDespread:
    """``despread`` takes the dense map iff L*s <= N, the number of groups."""

    CASES = [(s, L) for s in range(1, 7) for L in (1, 2, 5)] + [
        (1, 129), (2, 64), (4, 32), (4, 64), (6, 22)]

    @pytest.mark.parametrize("s,L", CASES)
    def test_both_paths_match_gather_and_oracle(self, s, L):
        rng = np.random.default_rng(60 + 7 * s + L)
        field = build_field(s)
        mapper = random_mapper(s, (s, L, 1))
        sv = random_spreading(field, L, (s, L, 2))
        rows = L * s
        for n in sorted({rows, max(rows - 1, 1)}):
            kern = _CodeKernel(field, mapper.signs, sv.elements)
            x = rng.normal(0.0, 3.0, size=(n, L, s))
            got = kern.despread(x)
            assert (kern._m_ext is not None) == (rows <= n)
            gathered = kern.chip_llrs(kern.extrinsic_symbol_llrs(kern.symbol_llrs(x)))
            np.testing.assert_allclose(got, gathered, rtol=1e-12, atol=1e-12)
            for g in range(min(n, 2)):
                want = map_despread_oracle(x[g].reshape(-1), sv, mapper, field)
                np.testing.assert_allclose(got[g].reshape(-1), want, rtol=0, atol=1e-9)

    def test_map_keeps_entry_zero_and_own_block_zero(self):
        field = build_field(3)
        kern = _CodeKernel(field, random_mapper(3, 5).signs,
                           random_spreading(field, 4, 6).elements)
        m = kern._ext_map().reshape(4, 3, 4, field.q)
        assert np.all(m[..., 0] == 0.0)
        for ell in range(4):
            assert np.all(m[ell, :, ell] == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(s=st.integers(1, 6), L=st.integers(1, 6), data=st.data(),
           seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    def test_own_prior_never_reaches_own_extrinsic(self, s, L, data, seed, scale):
        rng = np.random.default_rng(seed)
        field = build_field(s)
        kern = _CodeKernel(field, random_mapper(s, seed).signs,
                           rng.integers(1, field.q, size=L))
        ell = data.draw(st.integers(0, L - 1))
        x = rng.normal(0.0, 3.0, size=(L * s, L, s))
        base = kern.despread(x)
        assert kern._m_ext is not None
        x[:, ell] += rng.normal(0.0, scale, size=(L * s, s))
        assert np.array_equal(kern.despread(x)[:, ell], base[:, ell])


class TestFfdesBlock:
    def test_s1_repetition_despreading(self):
        f = build_field(1)
        sv = ones_spreading(f, 4)
        m = natural_mapper(1)
        x = np.array([1.0, 2.0, 4.0, 8.0])
        out = ffdes_block(x, sv, m)
        assert np.allclose(out, x.sum() - x)

    def test_extrinsic_exclusion_by_perturbation(self, gf4):
        rng = np.random.default_rng(3)
        m = random_mapper(2, 7)
        sv = random_spreading(gf4, 3, 8)
        prior = rng.normal(size=6)
        base = ffdes_block(prior, sv, m)
        for ell in range(3):
            jolted = prior.copy()
            jolted[ell * 2:(ell + 1) * 2] += rng.normal(size=2) * 5
            out = ffdes_block(jolted, sv, m)
            assert np.allclose(out[ell * 2:(ell + 1) * 2],
                               base[ell * 2:(ell + 1) * 2], atol=1e-9)

    def test_matches_composition_of_ops(self, gf4):
        rng = np.random.default_rng(4)
        m = random_mapper(2, 9)
        sv = random_spreading(gf4, 3, 10)
        prior = rng.normal(size=6)
        out = ffdes_block(prior, sv, m)
        vecs = np.stack([chip_to_symbol_llr(prior[2 * i:2 * i + 2], m)
                         for i in range(3)])
        for ell in range(3):
            ext = variable_extrinsic(vecs, sv, exclude=ell + 1)
            chips = symbol_to_chip_llr(ext, m)
            assert np.allclose(out[2 * ell:2 * ell + 2], chips, atol=1e-9)

    def test_matches_map_oracle(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(200):
            field, mapper, sv, prior = random_despread_instance(rng)
            got = ffdes_block(prior, sv, mapper)
            want = map_despread_oracle(prior, sv, mapper, field)
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < 1e-9

    def test_batch_dimension(self, gf4):
        rng = np.random.default_rng(6)
        m = random_mapper(2, 11)
        sv = random_spreading(gf4, 2, 12)
        batch = rng.normal(size=(5, 4))
        got = ffdes_block(batch, sv, m)
        for i in range(5):
            assert np.allclose(got[i], ffdes_block(batch[i], sv, m))


class TestTotalLlrAndDecide:
    def test_s1_sum_and_sign(self):
        f = build_field(1)
        sv = ones_spreading(f, 3)
        m = natural_mapper(1)
        vecs = np.array([[0.0, 1.0], [0.0, -2.0], [0.0, 0.5]])
        decisions, llrs = total_llr_and_decide(vecs, sv, m)
        assert llrs.tolist() == [-0.5]
        assert decisions.tolist() == [-1]

    def test_tie_resolves_positive(self):
        f = build_field(1)
        sv = ones_spreading(f, 1)
        m = natural_mapper(1)
        decisions, llrs = total_llr_and_decide(np.array([[0.0, 0.0]]), sv, m)
        assert llrs[0] == 0.0
        assert decisions[0] == 1

    def test_certainty_propagates(self, gf4):
        m = random_mapper(2, 13)
        sv = ones_spreading(gf4, 3)
        lam_star = 2
        vecs = np.zeros((3, 4))
        vecs[1, lam_star] = LLR_MAX
        decisions, _ = total_llr_and_decide(vecs, sv, m)
        assert np.array_equal(decisions, m.signs[lam_star])

    def test_matches_map_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            field, mapper, sv, prior = random_despread_instance(rng)
            kern = _CodeKernel(field, mapper.signs, sv.elements)
            vecs = kern.symbol_llrs(prior.reshape(sv.elements.size, mapper.s))
            _, llrs = total_llr_and_decide(vecs, sv, mapper)
            want = map_decision_oracle(prior, sv, mapper, field)
            worst = max(worst, float(np.max(np.abs(llrs - want))))
        assert worst < 1e-9

    def test_symbol_decision_option(self, gf4):
        m = natural_mapper(2)
        sv = ones_spreading(gf4, 2)
        vecs = np.zeros((2, 4))
        vecs[0, 3] = 10.0
        decisions, _ = total_llr_and_decide(vecs, sv, m, symbol_decision=True)
        assert np.array_equal(decisions, m.signs[3])

    def test_entry_zero_zero_through_pipeline(self, gf4):
        rng = np.random.default_rng(8)
        m = random_mapper(2, 14)
        sv = random_spreading(gf4, 3, 15)
        vecs = kernel_vecs = _CodeKernel(gf4, m.signs, sv.elements).symbol_llrs(
            rng.normal(size=(3, 2)))
        assert np.all(vecs[:, 0] == 0.0)
        ext = _CodeKernel(gf4, m.signs, sv.elements).extrinsic_symbol_llrs(kernel_vecs)
        assert np.all(ext[:, 0] == 0.0)


def _make_system(rng, K, s, L, n, seed=0, natural=False):
    field = build_field(s)
    specs = []
    for k in range(K):
        mapper = natural_mapper(s) if natural else random_mapper(s, (seed, k, 1))
        sv = random_spreading(field, L, (seed, k, 2)) if not natural \
            else ones_spreading(field, L)
        il = make_interleaver(s * n * L, (seed, k, 3))
        specs.append(UserCodeSpec(mapper=mapper, sv=sv, interleaver=il,
                                  n_symbols=n))
    return specs


class TestDecodeFrame:
    @pytest.mark.parametrize("s,L", [(1, 1), (1, 4), (2, 2), (3, 3)])
    def test_noiseless_single_user_recovery(self, s, L):
        rng = np.random.default_rng(20 + s + L)
        specs = _make_system(rng, 1, s, L, 16, seed=s * 10 + L)
        params = ChannelParams(K=1, L=L, eb_n0_db=0.0, noiseless=True)
        info = rng.integers(0, 2, s * 16) * 2 - 1
        chips = encode_user(info, specs[0])[None, :]
        y = transmit(chips, params, rng)
        res = decode_frame(y, specs, params, iterations=1)
        assert np.array_equal(res.decisions[0], info)

    def test_repetition_closed_form_llrs(self):
        # K=1, s=1, all-ones spreading: bit LLRs equal (4/N0) * sqrt(Eb/L)
        # times the sum of the L received chips of each symbol
        rng = np.random.default_rng(30)
        L, n = 4, 50
        specs = _make_system(rng, 1, 1, L, n, seed=2, natural=True)
        params = ChannelParams(K=1, L=L, eb_n0_db=2.0)
        info = rng.integers(0, 2, n) * 2 - 1
        chips = encode_user(info, specs[0])[None, :]
        y = transmit(chips, params, rng)
        res = decode_frame(y, specs, params, iterations=1)
        y_dei = y[specs[0].interleaver.inv_perm].reshape(n, L)
        want = (4.0 / params.n0) * params.amplitude * y_dei.sum(axis=1)
        assert np.allclose(res.bit_llrs[0], want, atol=1e-9)

    def test_identical_users_decode_identically(self):
        rng = np.random.default_rng(31)
        spec = _make_system(rng, 1, 2, 2, 20, seed=3)[0]
        params = ChannelParams(K=2, L=2, eb_n0_db=6.0)
        info = rng.integers(0, 2, 40) * 2 - 1
        chips = np.stack([encode_user(info, spec)] * 2)
        y = transmit(chips, params, rng)
        res = decode_frame(y, [spec, spec], params, iterations=5)
        assert np.array_equal(res.decisions[0], res.decisions[1])
        assert np.allclose(res.bit_llrs[0], res.bit_llrs[1])

    def test_monotone_trace_single_user(self):
        rng = np.random.default_rng(32)
        n_frames, iters = 100, 6
        traces = np.zeros((n_frames, iters))
        specs = _make_system(rng, 1, 2, 4, 10, seed=4)
        params = ChannelParams(K=1, L=4, eb_n0_db=0.0)
        for fr in range(n_frames):
            info = rng.integers(0, 2, 20) * 2 - 1
            chips = encode_user(info, specs[0])[None, :]
            y = transmit(chips, params, rng)
            res = decode_frame(y, specs, params, iterations=iters,
                               true_chips=chips)
            traces[fr] = res.trace[:, 0]
        mean_trace = traces.mean(axis=0)
        assert np.all(np.diff(mean_trace) >= -1e-9)

    def test_clamp_invariant_on_state(self):
        rng = np.random.default_rng(33)
        specs = _make_system(rng, 2, 1, 4, 30, seed=5)
        params = ChannelParams(K=2, L=4, eb_n0_db=20.0)
        info = rng.integers(0, 2, (2, 30)) * 2 - 1
        chips = np.stack([encode_user(info[k], specs[k]) for k in range(2)])
        y = transmit(chips, params, rng)
        res = decode_frame(y, specs, params, iterations=10)
        assert np.all(np.abs(res.chip_priors) <= LLR_MAX + 1e-12)

    def test_dimension_validation(self):
        rng = np.random.default_rng(34)
        specs = _make_system(rng, 1, 1, 2, 4, seed=6)
        params = ChannelParams(K=1, L=2, eb_n0_db=0.0)
        with pytest.raises(ValueError, match="received length"):
            decode_frame(np.zeros(7), specs, params, iterations=1)
        with pytest.raises(ValueError, match="user specs"):
            decode_frame(np.zeros(8), specs * 2, params, iterations=1)

    def test_trace_csv_dump(self, tmp_path):
        import csv
        rng = np.random.default_rng(36)
        specs = _make_system(rng, 2, 1, 2, 8, seed=7)
        params = ChannelParams(K=2, L=2, eb_n0_db=4.0)
        info = rng.integers(0, 2, (2, 8)) * 2 - 1
        chips = np.stack([encode_user(info[k], specs[k]) for k in range(2)])
        y = transmit(chips, params, rng)
        res = decode_frame(y, specs, params, iterations=3, true_chips=chips)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, res.trace)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 2
        assert rows[0]["iteration"] == "1" and rows[0]["user"] == "0"
        assert float(rows[-1]["mean_extrinsic_llr"]) == res.trace[2, 1]

    def test_s1_equals_repetition_idma(self):
        # full-decoder equivalence against the independently coded
        # repetition despreading decoder, random small frames
        rng = np.random.default_rng(35)
        worst = 0.0
        for trial in range(20):
            K = int(rng.integers(1, 4))
            L = int(rng.integers(2, 6))
            n = 24
            specs = _make_system(rng, K, 1, L, n, seed=100 + trial)
            params = ChannelParams(K=K, L=L, eb_n0_db=4.0)
            info = rng.integers(0, 2, (K, n)) * 2 - 1
            chips = np.stack([encode_user(info[k], specs[k]) for k in range(K)])
            y = transmit(chips, params, rng)
            res = decode_frame(y, specs, params, iterations=4)
            dec, llrs = repetition_idma_decoder(
                y, [sp.interleaver for sp in specs], params, iterations=4)
            worst = max(worst, float(np.max(np.abs(res.bit_llrs - llrs))))
            assert np.array_equal(res.decisions, dec)
        assert worst < 1e-9
