import sys
import threading
import tracemalloc

import numpy as np
import pytest
from helpers import (lse, map_decision_oracle, map_despread_oracle,
                     random_despread_instance, reference_decode_frame,
                     repetition_idma_decoder)
from hypothesis import given, settings
from hypothesis import strategies as st

from ffspread import decoder
from ffspread.analysis import _pattern_bit_llrs, _workspace, exit_ffdes_exact
from ffspread.channel import ChannelParams, transmit
from ffspread.codec import (SpreadingVector, UserCodeSpec, encode_user,
                            make_interleaver, ones_spreading,
                            random_spreading)
from ffspread.decoder import LLR_MAX, _CodeKernel, _ese_all, _lse, decode_frame, ffdes_block
from ffspread.gf import build_field, natural_mapper, random_mapper


@pytest.fixture(scope="module")
def gf4():
    return build_field(2)


def _kernel(mapper, sv_elements=(1,)):
    """Kernel for one mapper; the default spreading is the single element 1."""
    return _CodeKernel(build_field(mapper.s), mapper.signs, np.asarray(sv_elements))


def _read_in_pattern_coordinates(field, mappers, sv, chips):
    """(b, s, 1) total bit LLRs of (b, s, L) ``chips``, one mapper and one row
    of ``sv`` per sample, read as the EXIT sampler reads them."""
    forward = np.stack([m.forward for m in mappers])
    natural = _CodeKernel(field, natural_mapper(field.s).signs, np.ones(sv.shape[1], dtype=int))
    ws = _workspace(*[len(chips) * chips.shape[-1] * field.q] * 3)
    return _pattern_bit_llrs(natural, field, forward, np.argsort(forward, axis=1),
                             sv, chips, ws).T[..., None]


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
    """``extrinsic_symbol_llrs``: (L*s, N) chip LLRs to (L*Q, N) leave-one-out
    symbol LLRs, row l*Q + lam holding element lam at position l."""

    def test_identity_passthrough(self):
        kern = _kernel(natural_mapper(1), ones_spreading(build_field(1), 2).elements)
        out = kern.extrinsic_symbol_llrs(np.array([[1.0], [-2.5]]))
        # each position sees only the other position's chip
        assert out[:, 0].tolist() == [0.0, -2.5, 0.0, 1.0]

    def test_permuted_copy(self, gf4):
        kern = _kernel(natural_mapper(2), [1, 2])
        x = np.random.default_rng(1).normal(size=(4, 1))
        out = kern.extrinsic_symbol_llrs(x)[:4, 0]
        # single remaining term: position 1's symbol LLRs at index mul(lam, 2)
        expect = kern.symbol_llrs(x[2:])[gf4.mul_table[np.arange(4), 2], 0]
        assert np.allclose(out, expect)

    def test_sum_of_copies(self, gf4):
        kern = _kernel(natural_mapper(2), ones_spreading(gf4, 3).elements)
        c = np.array([[0.5], [-1.0]])
        out = kern.extrinsic_symbol_llrs(np.tile(c, (3, 1)))
        assert np.allclose(out[4:8], 2 * kern.symbol_llrs(c))


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
    """Chip LLRs by one log-sum-exp per bit class, row by row; ``signs`` is (Q, s)."""
    out = np.empty(x.shape[:-1] + (signs.shape[-1],))
    for idx in np.ndindex(*x.shape[:-1]):
        for n in range(signs.shape[1]):
            out[idx + (n,)] = lse(x[idx][signs[:, n] > 0]) - lse(x[idx][signs[:, n] < 0])
    return out


def _q_major_reference(x, signs):
    """``_per_bit_reference`` on (.., Q, M) vectors, giving (.., s, M)."""
    return np.swapaxes(_per_bit_reference(np.swapaxes(x, -1, -2), signs), -1, -2)


def _marginalization_case(s, layout, rng, scale):
    """(kernel, symbol LLR vectors (.., Q, M), signs) for one layout: a frame
    user's (5, Q, L) blocks, or one (Q, 1) total per sample through the
    natural-mapper kernel, as the EXIT sampler reads them."""
    field = build_field(s)
    L = 3
    if layout == "per-user":
        signs = random_mapper(s, (s, 1)).signs
        x = rng.normal(0.0, scale, size=(5, L, field.q))
    else:
        signs = natural_mapper(s).signs
        x = rng.normal(0.0, scale, size=(8, 1, field.q))
    kern = _CodeKernel(field, signs, random_spreading(field, L, (s, 2)).elements)
    return kern, np.swapaxes(x, -1, -2), signs


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
        tot = x[0] if layout == "per-user" else x
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

    @pytest.mark.parametrize("s", range(2, 7))
    def test_buffered_underflow_clips_like_log_sum_exp(self, s):
        # the buffered path keeps no fallback: an underflowed class gives a
        # chip LLR beyond +/-700, +/-inf where its mass is 0, so clipping it to
        # +/-LLR_MAX gives log-sum-exp's clipped value
        kern, x, signs = _marginalization_case(s, "per-user", np.random.default_rng(50 + s), 1e3)
        want = _q_major_reference(x, signs)
        got = kern.chip_llrs(x.copy(), np.empty((5, s, 3)), np.empty((5, 1, 3)),
                             np.empty((5, 2 * s, 3)))
        zero = np.abs(want) > 800.0  # exp(-800) underflows to 0
        assert np.any(zero)
        assert np.array_equal(got[zero], np.sign(want[zero]) * np.inf)
        far = np.abs(want) > 700.0
        assert np.all(np.abs(got[far]) > 700.0)
        assert np.array_equal(np.clip(got[far], -LLR_MAX, LLR_MAX),
                              np.clip(want[far], -LLR_MAX, LLR_MAX))
        np.testing.assert_allclose(got[~far], want[~far], rtol=1e-12, atol=1e-9)

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


def _maps_by_entry(field, w, sv):
    """The extrinsic and total maps, (L, Q, L, s) and (Q, L, s), gathered
    entry by entry from the field tables: w[lam * inv(s_l) * s_i, m] with
    zero own-position blocks, and w[lam * s_i, m]."""
    mul, inv = field.mul_table, field.inv_table
    L, (q, s) = len(sv), w.shape
    ext, tot = np.zeros((L, q, L, s)), np.empty((q, L, s))
    for lam in range(q):
        for i, s_i in enumerate(sv):
            tot[lam, i] = w[mul[lam, s_i]]
            for ell, s_l in enumerate(sv):
                if ell != i:
                    ext[ell, lam, i] = w[mul[mul[lam, inv[s_l]], s_i]]
    return ext, tot


class TestDenseMapDespread:
    """Both dense maps against their entries gathered one by one from the
    field tables, and both ``despread`` paths (allocating and in buffers)
    and the decision against the MAP oracles, for N = L*s and N = L*s - 1
    symbol groups."""

    CASES = [(s, L) for s in range(1, 7) for L in (1, 2, 5)] + [
        (1, 129), (2, 64), (4, 32), (4, 64), (6, 22)]

    @pytest.mark.parametrize("s,L", CASES)
    def test_both_paths_match_gather_and_oracle(self, s, L):
        rng = np.random.default_rng(60 + 7 * s + L)
        field = build_field(s)
        mapper = random_mapper(s, (s, L, 1))
        sv = random_spreading(field, L, (s, L, 2))
        kern = _CodeKernel(field, mapper.signs, sv.elements)
        ext, tot = _maps_by_entry(field, kern.w, sv.elements)
        assert np.array_equal(kern.ext_map, ext.reshape(kern.ext_map.shape))
        assert np.array_equal(kern.tot_map, tot.reshape(kern.tot_map.shape))
        rows = L * s
        for n in sorted({rows, max(rows - 1, 1)}):
            x = rng.normal(0.0, 3.0, size=(rows, n))                  # n symbol groups
            got = kern.despread(x)
            bufs = [np.empty((L, field.q, n))]
            bufs += [np.empty((L, 1, n)), np.empty((L, 2 * s, n))] if s > 1 else []
            assert np.array_equal(kern.despread(x.copy(), *bufs), got)
            decided = kern.total_bit_llrs(x)                          # (s, n)
            for g in range(min(n, 2)):
                want = map_despread_oracle(x[:, g], sv, mapper, field)
                np.testing.assert_allclose(got[:, g], want, rtol=0, atol=1e-9)
                want = map_decision_oracle(x[:, g], sv, mapper, field)
                np.testing.assert_allclose(decided[:, g], want, rtol=0, atol=1e-9)

    # float32 rounds each symbol LLR, a sum over up to 63 positions of
    # N(0, 3^2) chips here, to 2^-24 of its size: the chip LLRs of these
    # cases differ from float64's by at most 6e-5
    F32_BOUND = 1e-4

    @pytest.mark.parametrize("s,L", [(s, L) for s, L in CASES if s > 1])
    def test_float32_buffers_match_within_rounding(self, s, L):
        rng = np.random.default_rng(60 + 7 * s + L)
        field = build_field(s)
        mapper = random_mapper(s, (s, L, 1))
        sv = random_spreading(field, L, (s, L, 2))
        kern = _CodeKernel(field, mapper.signs, sv.elements)
        rows = L * s
        for n in sorted({rows, max(rows - 1, 1)}):
            x = rng.normal(0.0, 3.0, size=(rows, n))
            want = np.clip(kern.despread(x), -LLR_MAX, LLR_MAX)
            bufs = [np.empty((L, field.q, n), np.float32), np.empty((L, 1, n), np.float32),
                    np.empty((L, 2 * s, n), np.float32)]
            got = kern.despread(x.copy(), *bufs)
            assert got.dtype == np.float64
            got = np.clip(got, -LLR_MAX, LLR_MAX)
            np.testing.assert_allclose(got, want, rtol=0, atol=self.F32_BOUND)
            sure = np.abs(want) > self.F32_BOUND
            assert np.array_equal(np.sign(got[sure]), np.sign(want[sure]))
            for g in range(min(n, 2)):
                oracle = map_despread_oracle(x[:, g], sv, mapper, field)
                np.testing.assert_allclose(got[:, g], np.clip(oracle, -LLR_MAX, LLR_MAX),
                                           rtol=0, atol=self.F32_BOUND)

    def test_float32_zero_class_mass_clips_like_float64(self):
        # every chip at +/-LLR_MAX agreeing with one symbol puts each other
        # symbol >= 7 * 50 below it: exp(-350) is 0 in float32, normal in float64
        s, L, n = 4, 8, 40
        field = build_field(s)
        mapper = random_mapper(s, 8)
        sv = random_spreading(field, L, 9)
        kern = _CodeKernel(field, mapper.signs, sv.elements)
        rng = np.random.default_rng(10)
        x = rng.normal(0.0, 3.0, size=(L * s, n))
        sym = rng.integers(field.q, size=n // 2)
        spread = field.mul_table[sym][:, sv.elements]                 # (n/2, L) elements
        x[:, ::2] = LLR_MAX * mapper.signs[spread].reshape(-1, L * s).T
        want = kern.despread(x)
        assert np.all(np.abs(want[:, ::2]) > 300.0) and np.all(np.isfinite(want))
        bufs = [np.empty((L, field.q, n), np.float32), np.empty((L, 1, n), np.float32),
                np.empty((L, 2 * s, n), np.float32)]
        got = kern.despread(x.copy(), *bufs)
        assert np.array_equal(got[:, ::2], np.sign(want[:, ::2]) * np.inf)
        assert np.array_equal(np.clip(got[:, ::2], -LLR_MAX, LLR_MAX),
                              np.clip(want[:, ::2], -LLR_MAX, LLR_MAX))
        np.testing.assert_allclose(got[:, 1::2], want[:, 1::2], rtol=0, atol=self.F32_BOUND)

    def test_map_keeps_entry_zero_and_own_block_zero(self):
        field = build_field(3)
        kern = _CodeKernel(field, random_mapper(3, 5).signs,
                           random_spreading(field, 4, 6).elements)
        m = kern.ext_map.reshape(4, field.q, 4, 3)
        assert np.all(m[:, 0] == 0.0)
        assert np.all(kern.tot_map[0] == 0.0)
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
        assert "ext_map" in vars(kern)
        x[own] += rng.normal(0.0, scale, size=(s, L * s))
        assert np.array_equal(kern.despread(x)[own], base[own])


class TestFiniteOutputs:
    """``despread``, ``total_bit_llrs`` and the EXIT sampler's read in
    pattern coordinates stay finite for finite inputs up to +/-1e4 in size.

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
        cols = self._extreme(rng, (L * s, n))                         # n symbol groups
        samples = self._extreme(rng, (n, s, L))                       # n samples
        read = _read_in_pattern_coordinates(field, [random_mapper(s, (seed, i)) for i in range(n)],
                                            rng.integers(1, field.q, size=(n, L)), samples)
        for out in (shared.despread(cols), shared.total_bit_llrs(cols), read):
            assert np.all(np.isfinite(out))


class TestKernelLayouts:
    @pytest.mark.parametrize("L", (1, 3, 8))
    @pytest.mark.parametrize("s", range(1, 5))
    def test_per_sample_matches_shared_kernels(self, s, L):
        # per-sample mappers read in pattern coordinates, as the EXIT sampler
        # reads them, against each sample's own kernel: its totals, and
        # position l's extrinsic as the total of the symbol relabeled by
        # inv(s_l) with position l's prior zeroed.  The last sample's priors
        # agree with one symbol at +/-1000, so every class without it underflows.
        rng = np.random.default_rng(70 + 10 * s + L)
        field = build_field(s)
        b = 6
        mappers = [random_mapper(s, (s, L, i)) for i in range(b)]
        sv = rng.integers(1, field.q, size=(b, L))
        x = rng.normal(0.0, 3.0, size=(b, L, s))
        x[-1] += 1000.0 * mappers[-1].signs[field.mul_table[rng.integers(field.q), sv[-1]]]
        chips = np.swapaxes(x, 1, 2)                                  # (b, s, L)
        got_tot = _read_in_pattern_coordinates(field, mappers, sv, chips)  # (b, s, 1)
        assert np.abs(got_tot[-1]).min() > 800.0  # exp(-800) underflows to 0
        got_ext = np.empty((b, L, s))
        for ell in range(L):
            zeroed = chips.copy()
            zeroed[:, :, ell] = 0.0
            relabeled = field.mul_table[sv, field.inv_table[sv[:, ell]][:, None]]
            got_ext[:, ell] = _read_in_pattern_coordinates(field, mappers, relabeled,
                                                           zeroed)[..., 0]
        for i in range(b):
            shared = _CodeKernel(field, mappers[i].signs, sv[i])
            col = x[i].reshape(-1, 1)                                 # (L*s, 1)
            np.testing.assert_allclose(got_tot[i], shared.total_bit_llrs(col),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(got_ext[i].reshape(-1, 1), shared.despread(col),
                                       rtol=1e-12, atol=1e-12)
            want = map_despread_oracle(x[i].reshape(-1), SpreadingVector(field, sv[i]),
                                       mappers[i], field)
            np.testing.assert_allclose(got_ext[i].reshape(-1), want, rtol=0, atol=1e-9)

    def test_despread_in_buffers_allocates_no_arrays(self):
        # the frame path's call: s=4, L=8, N=3000, workspace given, map built
        s, L, n = 4, 8, 3000
        field = build_field(s)
        kern = _CodeKernel(field, random_mapper(s, 5).signs, random_spreading(field, L, 6).elements)
        prior = np.random.default_rng(7).normal(0.0, 3.0, size=(L * s, n))
        want = kern.despread(prior)
        x = prior.copy()
        bufs = (np.empty((L, field.q, n)), np.empty((L, 1, n)), np.empty((L, 2 * s, n)))
        kern.despread(x, *bufs)
        x[...] = prior
        tracemalloc.start()
        try:
            got = kern.despread(x, *bufs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is x
        assert np.array_equal(got, want)
        assert peak < 64 << 10

    def test_despread_in_float32_buffers_allocates_no_arrays(self):
        # the frame path's call for s > 1: float32 buffers, float64 priors
        s, L, n = 4, 8, 3000
        field = build_field(s)
        kern = _CodeKernel(field, random_mapper(s, 5).signs, random_spreading(field, L, 6).elements)
        prior = np.random.default_rng(7).normal(0.0, 3.0, size=(L * s, n))
        x = prior.copy()
        bufs = tuple(np.empty(shape, np.float32)
                     for shape in ((L, field.q, n), (L, 1, n), (L, 2 * s, n)))
        want = kern.despread(x, *bufs).copy()
        x[...] = prior
        tracemalloc.start()
        try:
            got = kern.despread(x, *bufs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is x
        assert np.array_equal(got, want)
        assert peak < 64 << 10

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

    def test_exit_read_builds_no_map(self, monkeypatch):
        # the EXIT sampler reads symbol LLRs in chip-pattern coordinates:
        # its kernel never needs, so never builds, either dense map
        kernels = []
        init = _CodeKernel.__init__

        def recorded(self, *args):
            init(self, *args)
            kernels.append(self)

        monkeypatch.setattr(_CodeKernel, "__init__", recorded)
        exit_ffdes_exact(4.0, 4, 8, samples=256, seed=1)
        assert kernels
        assert not any({"ext_map", "tot_map"} & vars(k).keys() for k in kernels)


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
        kern = _CodeKernel(gf4, m.signs, sv.elements)
        chips = rng.normal(size=(3, 2)).T                             # (s, L)
        assert np.all(kern.symbol_llrs(chips)[0] == 0.0)
        x = chips.T.reshape(-1, 1)                                    # (L*s, 1)
        assert np.all(kern.extrinsic_symbol_llrs(x).reshape(3, 4)[:, 0] == 0.0)
        assert kern.total_llrs(x)[0, 0] == 0.0


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
        y_dei = y[np.argsort(specs[0].interleaver.perm)].reshape(n, L)
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


class TestThreads:
    """Threaded frames give the serial frame's outputs bit for bit."""

    @pytest.mark.parametrize("K", [1, 3, 8])
    def test_outputs_equal_across_thread_counts(self, K, monkeypatch):
        rng = np.random.default_rng(40 + K)
        specs = _make_system(rng, K, 2, 4, 600, seed=40 + K)
        params = ChannelParams(K=K, L=4, eb_n0_db=3.0)
        info = rng.integers(0, 2, (K, 1200)) * 2 - 1
        chips = np.stack([encode_user(info[k], specs[k]) for k in range(K)])
        y = transmit(chips, params, rng)
        # every frame threaded, several ESE blocks, threads even without OpenBLAS
        monkeypatch.setattr(decoder, "THREAD_MIN_CHIPS", 0)
        monkeypatch.setattr(decoder, "_ESE_COLUMNS", 1000)
        monkeypatch.setattr(decoder, "_pin_blas", lambda: True)
        idents = set()
        despread = _CodeKernel.despread

        def recorded(self, *args):
            idents.add(threading.get_ident())
            return despread(self, *args)

        monkeypatch.setattr(_CodeKernel, "despread", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs = {}
            for n in (1, 2, 3):
                monkeypatch.setattr(decoder, "_cpu_share", lambda n=n: n)
                idents.clear()
                runs[n] = [decode_frame(y, specs, params, iterations=6, true_chips=tc)
                           for tc in (None, chips)]
                want = min(K, n)
                assert len(idents) == 1 if want == 1 else len(idents) >= 2
        finally:
            sys.setswitchinterval(interval)
        for n in (2, 3):
            for got, ref in zip(runs[n], runs[1]):
                for field in ("decisions", "bit_llrs", "trace", "chip_priors"):
                    assert np.array_equal(getattr(got, field), getattr(ref, field)), (n, field)

    def test_small_frames_stay_serial(self, monkeypatch):
        monkeypatch.setattr(decoder, "_cpu_share", lambda: 4)
        monkeypatch.setattr(decoder, "_pin_blas", lambda: True)
        assert decoder._frame_threads(8, decoder.THREAD_MIN_CHIPS // 8 - 1) == 1
        assert decoder._frame_threads(8, decoder.THREAD_MIN_CHIPS // 8) == 4
        assert decoder._frame_threads(3, decoder.THREAD_MIN_CHIPS) == 3
        monkeypatch.setattr(decoder, "_pin_blas", lambda: False)
        assert decoder._frame_threads(8, decoder.THREAD_MIN_CHIPS) == 1


class TestReferenceLoop:
    """decode_frame equals the plain scatter-and-allocate loop bit for bit,
    with the stop rule off and on."""

    @pytest.mark.parametrize("K,s,L,n,db,underflows", [
        (3, 1, 4, 200, 4.0, False),
        (4, 2, 8, 300, 4.0, False),
        (8, 4, 8, 3000, 7.5, False),   # threaded
        (2, 4, 8, 200, 20.0, True),
        (2, 6, 8, 100, 30.0, True),
    ])
    def test_matches_reference_loop(self, K, s, L, n, db, underflows, monkeypatch):
        rng = np.random.default_rng(K * 100 + s)
        specs = _make_system(rng, K, s, L, n, seed=K * 100 + s)
        params = ChannelParams(K=K, L=L, eb_n0_db=db)
        info = rng.integers(0, 2, (K, s * n)) * 2 - 1
        chips = np.stack([encode_user(info[k], specs[k]) for k in range(K)])
        y = transmit(chips, params, rng)
        monkeypatch.setattr(decoder, "_cpu_share", lambda: 2)
        monkeypatch.setattr(decoder, "_pin_blas", lambda: True)
        assert (decoder._frame_threads(K, y.size) > 1) == (K * y.size >= decoder.THREAD_MIN_CHIPS)
        # (beyond +/-700, infinite) per buffered marginalization, before the
        # clip: a class mass below the normal floats, or exactly 0
        extremes = []
        chip_llrs = _CodeKernel.chip_llrs

        def recorded(self, *args):
            out = chip_llrs(self, *args)
            if len(args) > 1:
                extremes.append((not np.all(np.abs(out) <= 700.0), np.isinf(out).any()))
            return out

        monkeypatch.setattr(_CodeKernel, "chip_llrs", recorded)
        for tc in (None, chips):
            got = decode_frame(y, specs, params, iterations=10, true_chips=tc)
            ref = reference_decode_frame(y, specs, params, 10, true_chips=tc)
            assert got.iterations == ref.iterations == 10
            assert got.trace.shape == (10, K)
            for field in ("decisions", "bit_llrs", "trace", "chip_priors"):
                assert np.array_equal(getattr(got, field), getattr(ref, field)), (tc is None, field)
        beyond, infinite = np.any(extremes, axis=0)
        assert beyond == underflows
        # a float32 log is at least log(smallest subnormal) = -103, so a chip
        # LLR beyond +/-700 is always an infinite one: both shapes reach it
        assert infinite == underflows
        got = decode_frame(y, specs, params, iterations=20, stop_after=2)
        _assert_same_outputs(got, reference_decode_frame(y, specs, params, 20, stop_after=2))
        assert got.iterations < 20 or db < 7.5  # the 7.5 dB and higher frames stop


def _frame(K, s, L, n, db, seed, noiseless=False):
    """A transmitted frame: (y, specs, params, true chips)."""
    rng = np.random.default_rng(seed)
    specs = _make_system(rng, K, s, L, n, seed=seed)
    params = ChannelParams(K=K, L=L, eb_n0_db=db, noiseless=noiseless)
    info = rng.integers(0, 2, (K, s * n)) * 2 - 1
    chips = np.stack([encode_user(info[k], specs[k]) for k in range(K)])
    return transmit(chips, params, rng), specs, params, chips


def _assert_same_outputs(got, ref):
    assert got.iterations == ref.iterations
    for field in ("decisions", "bit_llrs", "trace", "chip_priors"):
        assert np.array_equal(getattr(got, field), getattr(ref, field)), field


class TestStopRule:
    """A frame that stops early is the fixed schedule cut at its stop iteration."""

    @pytest.mark.parametrize("K,s,L,n,db", [
        (8, 4, 8, 3000, 7.5),   # the s=4 sweep shape, threaded
        (8, 2, 8, 750, 7.5),
        (2, 4, 8, 4000, 20.0),  # class masses underflow
        (4, 1, 8, 3000, 6.0),
    ])
    def test_stopped_frame_equals_fixed_schedule(self, K, s, L, n, db):
        y, specs, params, chips = _frame(K, s, L, n, db, seed=K * 10 + s)
        got = decode_frame(y, specs, params, true_chips=chips, stop_after=4)
        assert 4 < got.iterations < 50
        assert got.trace.shape == (got.iterations, K)
        ref = decode_frame(y, specs, params, iterations=got.iterations, true_chips=chips)
        _assert_same_outputs(got, ref)

    def test_same_stop_on_one_and_two_threads(self, monkeypatch):
        y, specs, params, _ = _frame(4, 2, 8, 2000, 7.5, seed=61)
        assert y.size * 4 >= decoder.THREAD_MIN_CHIPS
        monkeypatch.setattr(decoder, "_pin_blas", lambda: True)
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(decoder, "_cpu_share", lambda cpus=cpus: cpus)
            assert decoder._frame_threads(4, y.size) == cpus
            runs.append(decode_frame(y, specs, params, stop_after=3))
        assert runs[0].iterations < 50
        _assert_same_outputs(runs[1], runs[0])

    def test_no_stop_below_the_waterfall(self):
        y, specs, params, _ = _frame(8, 4, 8, 3000, 4.0, seed=62)
        assert decode_frame(y, specs, params, stop_after=4).iterations == 50

    def test_first_iteration_never_counts(self):
        # one noiseless user: every decision is final after the first iteration
        y, specs, params, _ = _frame(1, 2, 4, 64, 0.0, seed=63, noiseless=True)
        assert decode_frame(y, specs, params, iterations=1, stop_after=1).iterations == 1
        for m in (1, 3):
            got = decode_frame(y, specs, params, stop_after=m)
            assert got.iterations == m + 1
            _assert_same_outputs(got, decode_frame(y, specs, params, iterations=m + 1))

    def test_negative_stop_after_refused(self):
        y, specs, params, _ = _frame(1, 1, 2, 8, 4.0, seed=64)
        with pytest.raises(ValueError, match="stop_after"):
            decode_frame(y, specs, params, stop_after=-1)


class TestDecisionRead:
    """The hard decision is read in each user's task, on the frame's threads."""

    def test_threaded_stop_rule_reads_on_pool_threads(self, monkeypatch):
        y, specs, params, chips = _frame(4, 2, 4, 600, 7.5, seed=65)
        monkeypatch.setattr(decoder, "THREAD_MIN_CHIPS", 0)
        monkeypatch.setattr(decoder, "_pin_blas", lambda: True)
        idents = set()
        total_bit_llrs = _CodeKernel.total_bit_llrs

        def recorded(self, *args):
            idents.add(threading.get_ident())
            return total_bit_llrs(self, *args)

        monkeypatch.setattr(_CodeKernel, "total_bit_llrs", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs = {}
            for n in (1, 3):  # the users' rows of one shared read array
                monkeypatch.setattr(decoder, "_cpu_share", lambda n=n: n)
                idents.clear()
                runs[n] = [decode_frame(y, specs, params, true_chips=tc, stop_after=3)
                           for tc in (None, chips)]
                assert len(idents) == 1 if n == 1 else len(idents) >= 2
        finally:
            sys.setswitchinterval(interval)
        assert runs[1][0].iterations < 50
        for got, ref in zip(runs[3], runs[1]):
            _assert_same_outputs(got, ref)

    @pytest.mark.parametrize("stop_after", [0, 2])
    def test_reads_once_per_user_per_iteration_with_the_rule(self, stop_after, monkeypatch):
        y, specs, params, _ = _frame(3, 4, 8, 200, 4.0, seed=66)
        calls = []
        total_bit_llrs = _CodeKernel.total_bit_llrs

        def recorded(self, *args):
            calls.append(self)
            return total_bit_llrs(self, *args)

        monkeypatch.setattr(_CodeKernel, "total_bit_llrs", recorded)
        got = decode_frame(y, specs, params, iterations=8, stop_after=stop_after)
        # without the rule only the last iteration reads: once per user per frame
        assert len(calls) == 3 * (got.iterations if stop_after else 1)
