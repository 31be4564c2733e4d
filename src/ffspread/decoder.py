"""Iterative multi-user decoding: elementary signal estimation at the
received-symbol nodes, finite-field despreading (FF-DES) at the mapping
and variable nodes, and the final hard decision.

Message conventions
-------------------
Chip LLRs are scalars for the +/-1 hypothesis.  Symbol LLRs are
length-2^s vectors indexed by field element and referenced to element 0,
so entry 0 is identically zero and stays exactly zero through every
operation here.

The FF-DES for one spread symbol group (s*L chips) is the composition

    chip LLRs -> symbol LLR vectors     (one per spreading position)
              -> extrinsic symbol LLRs  (leave-one-out sum with index
                                         permutation by the spreading
                                         elements)
              -> extrinsic chip LLRs    (marginalization over the bit
                                         classes of each chip)

and the hard decision uses the same marginalization on the total
(all-positions) symbol LLR vector.  ``_CodeKernel`` implements both once,
with two entry points: ``despread`` (prior chip LLRs -> extrinsic chip
LLRs, each iteration) and ``total_bit_llrs`` (prior chip LLRs -> posterior
bit LLRs, the final decision); ``ffdes_block`` is the public wrapper of
``despread``.  Arrays are Q-major: each user's chip LLRs are an (L*s, N)
array, one column per symbol group, laid out by ``codec.chip_slots``.
The first two steps are linear: one matmul with a dense (L*2^s, L*s) map
per user, or gathers for per-sample mappers (the EXIT analysis).
Marginalization is one exponential per max-shifted symbol vector and one
matmul with the bit-class indicators, falling back to log-sum-exp where a
class mass underflows (possible on the unclamped analysis path).

A flooding schedule updates all users in parallel each iteration, so
results do not depend on user ordering.  ``decode_frame`` clamps LLRs to
``LLR_MAX`` after every node update; the underlying kernels are
unclamped so analysis code can reuse them bias-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams
from .codec import SpreadingVector, UserCodeSpec, chip_slots
from .gf import BitMapper, FieldSpec

LLR_MAX = 50.0
# prior <- DAMPING * prior + (1 - DAMPING) * extrinsic; see decode_frame
DAMPING = 0.5
_TINY = np.finfo(np.float64).tiny


def _lse(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) along the last axis, max-stabilized."""
    if x.shape[-1] == 1:  # m + log(exp(0)) is exactly m
        return x[..., 0]
    m = np.max(x, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)  # all -inf: empty mass
    # exp can overflow only in a row whose max is +inf, whose sum is +inf anyway
    with np.errstate(divide="ignore", over="ignore"):
        return np.squeeze(m, -1) + np.log(np.exp(x - m).sum(axis=-1))


class _CodeKernel:
    """Precomputed tables for one (field, mapper, spreading) triple.

    Array contract.  ``chip_llrs`` marginalizes symbol LLR vectors
    (.., Q, M) to chip LLRs (.., s, M): the max is over axis -2 and the
    (2s, Q) bit-class masks multiply from the left.

    A shared kernel (``signs`` (Q, s), ``sv_elements`` (L,)) serves one
    user of a frame.  ``despread`` maps (.., L*s, N) chip LLR columns,
    row i*s + m holding bit m of position i, to the same shape, and
    ``total_bit_llrs`` maps them to (.., s, N); each is one matmul with
    a dense map built on first use, (L*Q, L*s) or (Q, L*s), followed by
    marginalization.

    A per-sample kernel (``signs`` (b, Q, s), ``sv_elements`` (b, L), the
    EXIT path) takes chips as (b, s, L) and gathers: ``symbol_llrs``
    gives (b, Q, L), ``total_llrs`` (b, Q, 1); ``despread`` returns
    (b, s, L) and ``total_bit_llrs`` (b, s, 1).  The gathers also run on
    a shared kernel, for (.., s, L) chips.
    """

    def __init__(self, field: FieldSpec, signs: np.ndarray, sv_elements: np.ndarray):
        self.q = field.q
        self.s = int(signs.shape[-1])
        self.L = int(sv_elements.shape[-1])
        self.batched = np.ndim(sv_elements) == 2
        # (.., Q, s) matrix turning s chip LLRs into the 2^s symbol LLR vector
        self.w = (signs - signs[..., :1, :]) * 0.5
        # (.., 2s, Q) bit-class indicators: rows m < s hold the elements
        # whose bit m is +1, rows s + m those whose bit m is -1
        plus = np.swapaxes(signs, -1, -2) > 0
        self.masks = np.concatenate([plus, ~plus], axis=-2).astype(np.float64)
        # Flat indices into a group's (Q, L) symbol block and (Q, 1) total,
        # plus each sample's offset: tot_cols[i, lam] picks lsym[lam*s_i, i],
        # ext_cols[lam, l] picks ltot[lam*inv(s_l)].  The product table is
        # symmetric: row e holds lam*e for every lam.
        first = np.arange(len(sv_elements))[:, None, None] if self.batched else 0
        mt = field.mul_table
        self.tot_cols = mt[sv_elements].astype(np.int64) * self.L     # (.., L, Q)
        self.tot_cols += np.arange(self.L)[:, None] + first * (self.q * self.L)
        self.ext_cols = np.swapaxes(mt[field.inv_table[sv_elements]], -1, -2).astype(np.int64)
        self.ext_cols += first * self.q
        self._m_ext = self._m_tot = None

    def _unit_symbol_llrs(self) -> np.ndarray:
        """(L*s, Q, L) symbol LLRs of the L*s unit chip vectors, one per group."""
        unit = np.eye(self.L * self.s).reshape(-1, self.L, self.s)
        return self.symbol_llrs(np.swapaxes(unit, -1, -2))

    def _ext_map(self) -> np.ndarray:
        """(L*Q, L*s) map from a group's chip LLRs to its extrinsic symbol LLRs.

        Row (l, lam), column (i, m) holds ``w[lam * inv(s_l) * s_i, m]``:
        each gathered sum has one nonzero term, so the entries are exact,
        the own-position blocks i = l are zero, and so is every row lam = 0.
        """
        if self._m_ext is None:
            ext = self.extrinsic_symbol_llrs(self._unit_symbol_llrs())  # (L*s, Q, L)
            self._m_ext = ext.T.reshape(self.L * self.q, self.L * self.s)
        return self._m_ext

    def _tot_map(self) -> np.ndarray:
        """(Q, L*s) map from a group's chip LLRs to its total symbol LLRs."""
        if self._m_tot is None:
            self._m_tot = self.total_llrs(self._unit_symbol_llrs())[..., 0].T.copy()
        return self._m_tot

    def _gather(self, x: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entries ``cols`` of each group's flattened trailing block of ``x``."""
        if self.batched:  # the per-sample tables index the whole array
            return np.take(x, cols)
        return np.take(x.reshape(x.shape[:-2] + (-1,)), cols, axis=-1)

    def symbol_llrs(self, chip_llrs: np.ndarray) -> np.ndarray:
        """(.., s, L) chip LLRs -> (.., Q, L) a-priori symbol LLR vectors."""
        return self.w @ chip_llrs

    def total_llrs(self, lsym: np.ndarray) -> np.ndarray:
        """All-positions symbol LLR vector (.., Q, 1): ltot[lam] = sum_i lsym[lam*s_i, i]."""
        return self._gather(lsym, self.tot_cols).sum(axis=-2)[..., None]

    def extrinsic_symbol_llrs(self, lsym: np.ndarray) -> np.ndarray:
        """Leave-one-out symbol LLRs for every position, via total minus own term."""
        return self._gather(self.total_llrs(lsym), self.ext_cols) - lsym

    def chip_llrs(self, sym_llrs: np.ndarray) -> np.ndarray:
        """(.., Q, M) symbol LLR vectors -> (.., s, M) chip LLRs by marginalization.

        Each chip LLR is log(mass of the elements whose bit is +1) minus
        log(mass of those whose bit is -1).  One ``exp`` of the max-shifted
        vectors feeds one matmul with the 0/1 bit-class indicators, giving
        both masses of all s bits.  A vector where some class mass is not a
        positive normal float (a class underflowed, or the input is not
        finite) is recomputed by masked log-sum-exp, so extreme and +/-inf
        inputs give what log-sum-exp gives.  At s = 1 each class is one
        element and the result is their exact difference.
        """
        s = self.s
        if s == 1:
            return (self.masks[..., :1, :] - self.masks[..., 1:, :]) @ sym_llrs
        # non-finite and underflowed vectors are recomputed after the block
        with np.errstate(divide="ignore", invalid="ignore"):
            e = sym_llrs - np.max(sym_llrs, axis=-2, keepdims=True)
            np.exp(e, out=e)
            mass = self.masks @ e                                     # (.., 2s, M)
            del e
            bad = None
            if not mass.min(initial=np.inf) >= _TINY:
                bad = ~(mass >= _TINY).all(axis=-2)
            np.log(mass, out=mass)
            out = mass[..., :s, :] - mass[..., s:, :]
        if bad is not None:  # masked log-sum-exp of the selected vectors only
            sel = np.nonzero(bad)
            masks = self.masks[sel[0]] if self.masks.ndim == 3 else self.masks
            plus = masks[..., :s, :] > 0                              # (.., s, Q)
            xr = np.moveaxis(sym_llrs, -2, -1)[sel][:, None, :]       # (r, 1, Q)
            np.moveaxis(out, -2, -1)[sel] = (_lse(np.where(plus, xr, -np.inf))
                                             - _lse(np.where(plus, -np.inf, xr)))
        return out

    def despread(self, chip_llrs: np.ndarray) -> np.ndarray:
        """Full FF-DES: prior chip LLRs -> extrinsic chip LLRs, same shape."""
        if self.batched:
            return self.chip_llrs(self.extrinsic_symbol_llrs(self.symbol_llrs(chip_llrs)))
        shape = chip_llrs.shape
        ext = self._ext_map() @ chip_llrs
        return self.chip_llrs(ext.reshape(shape[:-2] + (self.L, self.q, shape[-1]))).reshape(shape)

    def total_bit_llrs(self, chip_llrs: np.ndarray) -> np.ndarray:
        """Hard-decision input: prior chip LLRs -> (.., s, M) posterior bit LLRs."""
        if self.batched:
            return self.chip_llrs(self.total_llrs(self.symbol_llrs(chip_llrs)))
        return self.chip_llrs(self._tot_map() @ chip_llrs)


def ffdes_block(prior_chip_llrs, sv: SpreadingVector, mapper: BitMapper) -> np.ndarray:
    """FF-DES on one spread symbol group: s*L prior chip LLRs in, s*L extrinsic out.

    Output chips of spreading position l never depend on the prior chips
    of position l.  Accepts a leading batch dimension.
    """
    prior = np.asarray(prior_chip_llrs, dtype=np.float64)
    s, L = mapper.s, sv.length
    if prior.shape[-1] != s * L:
        raise ValueError(f"expected {s * L} chip LLRs, got {prior.shape}")
    kern = _CodeKernel(sv.field, mapper.signs, sv.elements)
    out = kern.despread(prior.reshape(-1, s * L).T)
    return out.T.reshape(prior.shape)


def _ese_all(y: np.ndarray, la_x: np.ndarray, amplitude: float, n0: float) -> np.ndarray:
    """Vectorized ESE for all users and positions via leave-one-out sums.

    Evaluates 2a (y - a (sum t - t)) / (a^2 (sum v - v) + n0/2) with
    t = tanh(la_x / 2) and v = 1 - t^2, in two (K, T) buffers.
    """
    t = np.multiply(la_x, 0.5)
    np.tanh(t, out=t)
    v = np.multiply(t, t)
    np.subtract(1.0, v, out=v)
    st = t.sum(axis=0)
    sv = v.sum(axis=0)
    num = np.subtract(st, t, out=t)
    num *= amplitude
    np.subtract(y, num, out=num)
    num *= 2.0 * amplitude
    den = np.subtract(sv, v, out=v)
    den *= amplitude * amplitude
    den += 0.5 * n0
    if n0 > 0:
        return np.divide(num, den, out=num)
    # noiseless override: the denominator can reach zero
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(num, den, out=num)
    return np.nan_to_num(num, copy=False, nan=0.0, posinf=LLR_MAX, neginf=-LLR_MAX)


@dataclass
class DecodeResult:
    decisions: np.ndarray    # (K, s*N) decided info bits, +/-1
    bit_llrs: np.ndarray     # (K, s*N) total posterior bit LLRs
    trace: np.ndarray        # (iterations, K) mean extrinsic chip LLR per user
    chip_priors: np.ndarray  # (K, s*N*L) final deinterleaved a-priori chip LLRs


def write_trace_csv(path, trace: np.ndarray) -> None:
    """Dump a decode trace as CSV rows (iteration, user, mean_extrinsic_llr)."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "user", "mean_extrinsic_llr"])
        for it in range(trace.shape[0]):
            for k in range(trace.shape[1]):
                w.writerow([it + 1, k, repr(float(trace[it, k]))])


def decode_frame(y: np.ndarray, specs: list[UserCodeSpec], params: ChannelParams,
                 iterations: int = 50, true_chips: np.ndarray | None = None) -> DecodeResult:
    """Iterative multi-user decoding of one frame.

    All users update in parallel each iteration: ESE at every position,
    per-user deinterleaving, FF-DES per symbol group, then
    re-interleaving of the extrinsic chip LLRs into the next priors.
    Initial priors are zero.  After the last iteration the hard decision
    runs on the total symbol LLRs built from the final deinterleaved
    chip priors.

    ``DAMPING`` blends the new priors with the previous ones
    (prior <- DAMPING * prior + (1 - DAMPING) * extrinsic).  It leaves
    fixed points untouched and keeps the schedule symmetric across
    users, but is essential at high load: with undamped synchronous
    updates the confidence ramp can outrun error correction and lock
    whole frames into a saturated period-2 oscillation.

    ``trace[it, k]`` records the mean extrinsic chip LLR of user k after
    iteration it: mean of x * LLR when ``true_chips`` (the K transmitted
    chip vectors) is given, mean absolute LLR otherwise.
    """
    y = np.asarray(y, dtype=np.float64)
    K = len(specs)
    if K != params.K:
        raise ValueError(f"got {K} user specs but params.K={params.K}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    T = y.size
    for spec in specs:
        if spec.chip_count != T:
            raise ValueError(f"received length {T} != s*N*L = {spec.chip_count}")
        if spec.L != params.L:
            raise ValueError("spreading length disagrees with channel params")
        if spec.s != specs[0].s or spec.n_symbols != specs[0].n_symbols:
            raise ValueError("all users must share the same s and N")
    if true_chips is not None:
        true_chips = np.asarray(true_chips)
        if true_chips.shape != (K, T):
            raise ValueError(f"true_chips shape {true_chips.shape} != {(K, T)}")

    kernels = [_CodeKernel(sp.sv.field, sp.mapper.signs, sp.sv.elements) for sp in specs]
    slots = [chip_slots(sp) for sp in specs]
    cols = (specs[0].L * specs[0].s, specs[0].n_symbols)
    la_x = np.zeros((K, T))
    la_c = np.zeros((K, T))  # per user an (L*s, N) array, see chip_slots
    trace = np.zeros((iterations, K))
    extr = np.empty(T)

    for it in range(iterations):
        ese = _ese_all(y, la_x, params.amplitude, params.n0)
        np.clip(ese, -LLR_MAX, LLR_MAX, out=ese)
        for k in range(K):
            la_c[k][slots[k]] = ese[k]
            le = kernels[k].despread(la_c[k].reshape(cols))
            np.clip(le, -LLR_MAX, LLR_MAX, out=le)
            # "clip" never clips a permutation; unlike "raise" it needs no copy
            np.take(le.reshape(-1), slots[k], out=extr, mode="clip")
            if true_chips is not None:
                trace[it, k] = float(np.mean(true_chips[k] * extr))
            else:
                trace[it, k] = float(np.mean(np.abs(extr)))
            extr *= 1.0 - DAMPING
            la_x[k] *= DAMPING
            la_x[k] += extr

    bit_llrs = np.stack([kern.total_bit_llrs(la_c[k].reshape(cols)).T.reshape(-1)
                         for k, kern in enumerate(kernels)])
    decisions = np.where(bit_llrs >= 0, 1, -1).astype(np.int8)
    chip_priors = la_c.reshape(K, *cols).transpose(0, 2, 1).reshape(K, T)
    return DecodeResult(decisions=decisions, bit_llrs=bit_llrs, trace=trace,
                        chip_priors=chip_priors)
