import tracemalloc

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
from ffspread.decoder import (LLR_MAX, _CodeKernel, _ese_all, _lse, decode_frame,
                              ffdes_block, write_trace_csv)
from ffspread.gf import build_field, natural_mapper, random_mapper


@pytest.fixture(scope="module")
def gf4():
    return build_field(2)


def _kernel(mapper, sv_elements=(1,)):
    """Kernel for one mapper; the default spreading is the single element 1."""
    return _CodeKernel(build_field(mapper.s), mapper.signs, np.asarray(sv_elements))


def _ese_user0(y_t, priors, params):
    """User 0's ESE output at one position, given the other users' priors.

    User 0's own prior is nonzero: the leave-one-out sums must ignore it.
    """
    la_x = np.array([[-7.5], *([p] for p in priors)])
    return float(_ese_all(np.array([y_t]), la_x, params.amplitude, params.n0)[0, 0])


class TestEse:
    def test_matched_filter(self):
        params = ChannelParams(K=1, L=1, eb_n0_db=10 * np.log10(0.5))  # N0 = 2
        assert _ese_user0(0.5, [], params) == pytest.approx(1.0)

    def test_known_interferer_cancels(self):
        params = ChannelParams(K=2, L=1, eb_n0_db=3.0)
        y = 0.37
        got = _ese_user0(y, [LLR_MAX], params)
        want = 4.0 * (y - 1.0) / params.n0
        assert got == pytest.approx(want, rel=1e-9)

    def test_uninformative_prior(self):
        params = ChannelParams(K=2, L=1, eb_n0_db=0.0)  # Eb/L = 1, N0 = 1
        assert _ese_user0(1.0, [0.0], params) == pytest.approx(4.0 / 3.0)


class TestChipToSymbol:
    def test_s1(self):
        out = _kernel(natural_mapper(1)).symbol_llrs(np.array([1.7]))
        assert out.tolist() == [0.0, 1.7]

    def test_s2_hand_evaluated(self):
        kern = _kernel(natural_mapper(2))
        assert kern.symbol_llrs(np.array([1.0, 2.0])).tolist() == [0.0, 2.0, 1.0, 3.0]

    def test_zero_input(self):
        kern = _kernel(random_mapper(3, 1))
        assert np.all(kern.symbol_llrs(np.zeros(3)) == 0.0)

    def test_entry_zero_stays_zero(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            out = _kernel(random_mapper(3, seed)).symbol_llrs(rng.normal(size=3))
            assert out[0] == 0.0


class TestVariableExtrinsic:
    def test_identity_passthrough(self):
        kern = _kernel(natural_mapper(1), ones_spreading(build_field(1), 2).elements)
        vecs = np.array([[0.0, 1.0], [0.0, -2.5]]).T
        out = kern.extrinsic_symbol_llrs(vecs)
        assert out[:, 0].tolist() == [0.0, -2.5]

    def test_permuted_copy(self, gf4):
        kern = _kernel(natural_mapper(2), [1, 2])
        rng = np.random.default_rng(1)
        vecs = rng.normal(size=(2, 4))
        vecs[:, 0] = 0.0
        out = kern.extrinsic_symbol_llrs(vecs.T)
        # single remaining term: input2 at index mul(lam, 2)
        expect = vecs[1, gf4.mul_table[np.arange(4), 2]]
        assert np.allclose(out[:, 0], expect)

    def test_sum_of_copies(self, gf4):
        kern = _kernel(natural_mapper(2), ones_spreading(gf4, 3).elements)
        v = np.array([0.0, 0.5, -1.0, 2.0])
        out = kern.extrinsic_symbol_llrs(np.tile(v, (3, 1)).T)
        assert np.allclose(out[:, 1], 2 * v)


class TestSymbolToChip:
    def test_s1_two_term(self):
        assert _kernel(natural_mapper(1)).chip_llrs(np.array([[0.0], [1.3]])).tolist() == [[1.3]]

    def test_s2_hand_evaluated(self):
        out = _kernel(natural_mapper(2)).chip_llrs(np.array([[0.0], [2.0], [1.0], [3.0]]))
        assert np.allclose(out, [[1.0], [2.0]], atol=1e-12)

    def test_uniform_vector(self):
        assert np.allclose(_kernel(random_mapper(2, 5)).chip_llrs(np.zeros((4, 1))), 0.0)

    def test_inverts_chip_to_symbol(self):
        # additive vectors factor exactly, so the round trip is exact
        rng = np.random.default_rng(2)
        for seed in range(10):
            kern = _kernel(random_mapper(3, seed))
            chips = rng.normal(size=(3, 1))
            back = kern.chip_llrs(kern.symbol_llrs(chips))
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


def _q_major_reference(x, signs):
    """``_per_bit_reference`` on (.., Q, M) vectors, giving (.., s, M)."""
    return np.swapaxes(_per_bit_reference(np.swapaxes(x, -1, -2), signs), -1, -2)


def _marginalization_case(s, layout, rng, scale):
    """(kernel, symbol LLR vectors (.., Q, M), signs) for one kernel layout."""
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
    return _CodeKernel(field, signs, sv), np.swapaxes(x, -1, -2), signs


class TestChipLlrsKernel:
    LAYOUTS = ("per-user", "per-sample")

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("s", range(1, 7))
    def test_matches_per_bit_reference(self, s, layout):
        rng = np.random.default_rng(40 + s)
        kern, x, signs = _marginalization_case(s, layout, rng, scale=20.0)
        np.testing.assert_allclose(kern.chip_llrs(x), _q_major_reference(x, signs),
                                   rtol=1e-12, atol=1e-12)
        # total-LLR shapes: (Q, N) on the frame path, (b, Q, 1) per sample
        tot = x[0] if layout == "per-user" else x[..., :1]
        np.testing.assert_allclose(kern.chip_llrs(tot),
                                   _q_major_reference(tot, signs),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("s", range(1, 7))
    def test_underflowing_class_stays_finite(self, s, layout):
        rng = np.random.default_rng(50 + s)
        kern, x, signs = _marginalization_case(s, layout, rng, scale=1e3)
        want = _q_major_reference(x, signs)
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
        plus = (signs[..., 0] > 0)[..., None]
        want = (np.where(plus, x, 0.0).sum(-2) - np.where(plus, 0.0, x).sum(-2))[..., None, :]
        assert np.array_equal(kern.chip_llrs(x), want)

    def test_positive_inf_next_to_large_value(self):
        # bit classes holding +inf beside 1e300 once overflowed in exp; the
        # pytest configuration turns that RuntimeWarning into a failure
        kern, _, signs = _marginalization_case(3, "per-user", np.random.default_rng(4), 1.0)
        x = np.zeros((8, 2))
        x[1] = np.inf
        x[2:, 0] = 1e300
        x[2:, 1] = -1e300
        got = kern.chip_llrs(x)
        assert np.array_equal(got, np.broadcast_to(signs[1, :, None] * np.inf, got.shape))


class TestLse:
    def test_positive_inf_row_is_inf_without_warning(self):
        x = np.array([[np.inf, 1e300], [1e300, np.inf], [np.inf, -np.inf],
                      [-np.inf, -np.inf], [0.0, 1.0]])
        got = _lse(x)
        assert got[:3].tolist() == [np.inf] * 3
        assert got[3] == -np.inf
        assert got[4] == pytest.approx(np.log1p(np.e), rel=1e-15)


class TestDenseMapDespread:
    """``despread``'s dense map against the gather chain and the MAP oracle,
    for N = L*s and N = L*s - 1 symbol groups."""

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
            got = kern.despread(x.reshape(n, rows).T)                 # (L*s, n)
            lsym = kern.symbol_llrs(np.swapaxes(x, 1, 2))
            gathered = kern.chip_llrs(kern.extrinsic_symbol_llrs(lsym))  # (n, s, L)
            np.testing.assert_allclose(got.T.reshape(n, L, s), np.swapaxes(gathered, 1, 2),
                                       rtol=1e-12, atol=1e-12)
            for g in range(min(n, 2)):
                want = map_despread_oracle(x[g].reshape(-1), sv, mapper, field)
                np.testing.assert_allclose(got[:, g], want, rtol=0, atol=1e-9)

    def test_map_keeps_entry_zero_and_own_block_zero(self):
        field = build_field(3)
        kern = _CodeKernel(field, random_mapper(3, 5).signs,
                           random_spreading(field, 4, 6).elements)
        m = kern._ext_map().reshape(4, field.q, 4, 3)
        assert np.all(m[:, 0] == 0.0)
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
        own = slice(ell * s, (ell + 1) * s)
        x = rng.normal(0.0, 3.0, size=(L * s, L * s))
        base = kern.despread(x)
        assert kern._m_ext is not None
        x[own] += rng.normal(0.0, scale, size=(s, L * s))
        assert np.array_equal(kern.despread(x)[own], base[own])


class TestFiniteOutputs:
    """``despread`` and ``total_bit_llrs`` stay finite on both kernels for
    finite inputs up to +/-1e4 in size.

    +/-inf input is not supported: the maps' exact zeros give inf * 0 = NaN.
    ``decode_frame`` clips every chip LLR to +/-LLR_MAX before a kernel
    sees it.
    """

    @staticmethod
    def _extreme(rng, shape):
        """N(0, 1e3) entries, about half replaced by +/-LLR_MAX, +/-1e4 or 0."""
        x = rng.normal(0.0, 1e3, size=shape)
        pick = rng.random(shape) < 0.5
        x[pick] = rng.choice([LLR_MAX, -LLR_MAX, 1e4, -1e4, 0.0], size=int(pick.sum()))
        return x

    @settings(max_examples=60, deadline=None)
    @given(s=st.integers(1, 6), L=st.integers(1, 6), n=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_extreme_inputs_give_finite_outputs(self, s, L, n, seed):
        rng = np.random.default_rng(seed)
        field = build_field(s)
        shared = _CodeKernel(field, random_mapper(s, seed).signs,
                             rng.integers(1, field.q, size=L))
        per = _CodeKernel(field, np.stack([random_mapper(s, (seed, i)).signs for i in range(n)]),
                          rng.integers(1, field.q, size=(n, L)))
        cols = self._extreme(rng, (L * s, n))                         # n symbol groups
        samples = self._extreme(rng, (n, s, L))                       # n samples
        for out in (shared.despread(cols), shared.total_bit_llrs(cols),
                    per.despread(samples), per.total_bit_llrs(samples)):
            assert np.all(np.isfinite(out))


class TestKernelLayouts:
    @pytest.mark.parametrize("L", (1, 3, 8))
    @pytest.mark.parametrize("s", range(1, 5))
    def test_per_sample_matches_shared_kernels(self, s, L):
        # the EXIT path's per-sample kernel against the frame path's shared one
        rng = np.random.default_rng(70 + 10 * s + L)
        field = build_field(s)
        b = 6
        signs = np.stack([random_mapper(s, (s, L, i)).signs for i in range(b)])
        sv = rng.integers(1, field.q, size=(b, L))
        x = rng.normal(0.0, 3.0, size=(b, L, s))
        per = _CodeKernel(field, signs, sv)
        got = per.despread(np.swapaxes(x, 1, 2))                      # (b, s, L)
        got_tot = per.total_bit_llrs(np.swapaxes(x, 1, 2))            # (b, s, 1)
        for i in range(b):
            shared = _CodeKernel(field, signs[i], sv[i])
            col = x[i].reshape(-1, 1)                                 # (L*s, 1)
            np.testing.assert_allclose(got[i].T.reshape(-1, 1), shared.despread(col),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(got_tot[i], shared.total_bit_llrs(col),
                                       rtol=1e-12, atol=1e-12)

    def test_large_field_build_stays_small(self):
        # s=12, L=8 passes RunConfig.validate(); the build must not copy
        # the 4096 x 4096 product table
        field = build_field(12)
        signs = random_mapper(12, 1).signs
        sv = random_spreading(field, 8, 2).elements
        tracemalloc.start()
        try:
            _CodeKernel(field, signs, sv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


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
        kern = _kernel(natural_mapper(1), ones_spreading(build_field(1), 3).elements)
        llrs = kern.total_bit_llrs(np.array([[1.0], [-2.0], [0.5]]))
        assert llrs.tolist() == [[-0.5]]
        assert np.where(llrs >= 0, 1, -1).tolist() == [[-1]]

    def test_tie_resolves_positive(self):
        kern = _kernel(natural_mapper(1))
        assert kern.total_bit_llrs(np.zeros((1, 1))).tolist() == [[0.0]]
        # a frame of zeros gives all-zero bit LLRs, decided as +1
        specs = _make_system(np.random.default_rng(9), 1, 1, 1, 4, natural=True)
        params = ChannelParams(K=1, L=1, eb_n0_db=0.0)
        res = decode_frame(np.zeros(4), specs, params, iterations=1)
        assert np.all(res.bit_llrs == 0.0)
        assert np.all(res.decisions == 1)

    def test_certainty_propagates(self, gf4):
        m = random_mapper(2, 13)
        kern = _kernel(m, ones_spreading(gf4, 3).elements)
        lam_star = 2
        chips = np.zeros((3, 2))
        chips[1] = LLR_MAX * m.signs[lam_star]
        llrs = kern.total_bit_llrs(chips.reshape(-1, 1))[:, 0]
        assert np.array_equal(np.where(llrs >= 0, 1, -1), m.signs[lam_star])

    def test_matches_map_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            field, mapper, sv, prior = random_despread_instance(rng)
            kern = _CodeKernel(field, mapper.signs, sv.elements)
            llrs = kern.total_bit_llrs(prior.reshape(-1, 1))[:, 0]
            want = map_decision_oracle(prior, sv, mapper, field)
            worst = max(worst, float(np.max(np.abs(llrs - want))))
        assert worst < 1e-9

    def test_entry_zero_zero_through_pipeline(self, gf4):
        rng = np.random.default_rng(8)
        m = random_mapper(2, 14)
        sv = random_spreading(gf4, 3, 15)
        vecs = kernel_vecs = _CodeKernel(gf4, m.signs, sv.elements).symbol_llrs(
            rng.normal(size=(3, 2)).T)
        assert np.all(vecs[0] == 0.0)
        ext = _CodeKernel(gf4, m.signs, sv.elements).extrinsic_symbol_llrs(kernel_vecs)
        assert np.all(ext[0] == 0.0)


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

    @settings(max_examples=40, deadline=None)
    @given(K=st.integers(1, 4), s=st.integers(1, 4), L=st.integers(1, 5),
           n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           noise=st.sampled_from(["awgn", "noiseless", "scaled"]))
    def test_finite_and_user_permutation_equivariant(self, K, s, L, n, seed, noise):
        rng = np.random.default_rng(seed)
        specs = _make_system(rng, K, s, L, n, seed=seed)
        params = ChannelParams(K=K, L=L, eb_n0_db=float(rng.uniform(0, 8)),
                               noiseless=noise == "noiseless")
        info = rng.integers(0, 2, (K, s * n)) * 2 - 1
        chips = np.stack([encode_user(info[k], specs[k]) for k in range(K)])
        y = transmit(chips, params, rng)
        if noise == "scaled":
            y *= 1e6
        res = decode_frame(y, specs, params, iterations=4)
        assert np.all(np.isfinite(res.bit_llrs))
        assert np.all(np.isfinite(res.trace))
        # the ESE's sum over users is order-dependent in the last bits only
        perm = rng.permutation(K)
        back = decode_frame(y, [specs[k] for k in perm], params, iterations=4)
        np.testing.assert_allclose(back.bit_llrs, res.bit_llrs[perm], rtol=0, atol=1e-9)
        np.testing.assert_allclose(back.trace, res.trace[:, perm], rtol=0, atol=1e-9)
        sure = np.abs(res.bit_llrs[perm]) > 1e-6
        assert np.array_equal(back.decisions[sure], res.decisions[perm][sure])
