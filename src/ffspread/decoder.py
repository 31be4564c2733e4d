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
``despread`` for one group.  The first two steps are linear in the
chip LLRs: for one user's fixed mapper and spreading vector they run as
one matmul with a precomputed dense (L*s, L*2^s) map whose own-position
blocks are zero, and otherwise (per-sample mappers, or calls with fewer
than L*s symbol groups) as index gathers.  Marginalization picks its method
from the field size Q = 2^s: per-bit log-sum-exps for Q <= 4, and for
Q >= 8 one exponential of each max-shifted vector followed by two
matmuls with the bit-class indicator matrices.  Rows where a whole bit
class underflows (possible on the unclamped analysis path) or whose
input is not finite fall back to log-sum-exp.

A flooding schedule updates all users in parallel each iteration, so
results do not depend on user ordering.  ``decode_frame`` clamps LLRs to
``LLR_MAX`` after every node update; the underlying kernels are
unclamped so analysis code can reuse them bias-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams
from .codec import SpreadingVector, UserCodeSpec, permute
from .gf import BitMapper, FieldSpec

LLR_MAX = 50.0
# prior <- DAMPING * prior + (1 - DAMPING) * extrinsic; see decode_frame
DAMPING = 0.5
# Largest field size marginalized by per-bit log-sum-exps.  Below Q = 8 the
# max-shift and exp of the matmul path alone cost more than the loop.
_MAX_LSE_Q = 4
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


def _weight_matrix(signs: np.ndarray) -> np.ndarray:
    """(.., s, Q) matrix turning s chip LLRs into the 2^s symbol LLR vector."""
    w = (signs - signs[..., :1, :]) * 0.5
    return np.swapaxes(w, -1, -2).astype(np.float64)


def _bit_order(signs: np.ndarray) -> np.ndarray:
    """(.., Q, s) element order per bit: the 2^(s-1) elements whose bit is -1 first."""
    return np.argsort(signs, axis=-2, kind="stable").astype(np.int64)


class _CodeKernel:
    """Precomputed tables for one (field, mapper, spreading) triple.

    Array contract.  A shared kernel (``signs`` (Q, s), ``sv_elements``
    (L,)) keeps unbatched tables and accepts arrays with any leading axes.
    A per-sample kernel (``signs`` (b, Q, s), ``sv_elements`` (b, L), one
    mapper and spreading vector per sample) accepts (b, P, .) arrays, with
    P = L for per-position arrays and P = 1 for a total; its tables are
    stored so that plain numpy broadcasting lines them up with those:
    ``wt`` (b, s, Q), ``idx_tot``/``idx_ext`` (b, L, Q), ``order``
    (b, 1, Q, s), ``mass_plus``/``mass_minus`` (b, Q, s).  ``total_llrs``
    returns (b, Q), which ``chip_llrs`` takes as (b, 1, Q).

    The steps of the despreader before marginalization are linear in the
    chip LLRs.  With one shared mapper and spreading vector they compose
    into one dense (L*s, L*Q) map, so ``despread`` is a single matmul
    followed by marginalization.  The map is built on first use, and only
    for calls with N >= L*s symbol groups: then it is no larger than the
    (N, L, Q) block it replaces.  Smaller calls, and every per-sample
    kernel, gather with ``take_along_axis``.
    """

    def __init__(self, field: FieldSpec, signs: np.ndarray, sv_elements: np.ndarray):
        self.q = field.q
        self.s = int(signs.shape[-1])
        self.L = int(sv_elements.shape[-1])
        self.batched = signs.ndim == 3 or np.asarray(sv_elements).ndim == 2
        self.wt = _weight_matrix(signs)                               # (.., s, Q)
        if self.q <= _MAX_LSE_Q:
            order = _bit_order(signs)                                 # (.., Q, s)
            self.order = order[:, None] if order.ndim == 3 else order  # (b, 1, Q, s)
        else:
            plus = signs > 0
            self.mass_plus = plus.astype(np.float64)                  # (.., Q, s)
            self.mass_minus = (~plus).astype(np.float64)
        # the product table is symmetric: row e holds lam*e for every lam
        mt = field.mul_table
        self.idx_tot = mt[sv_elements].astype(np.int64)               # (.., L, Q)
        self.idx_ext = mt[field.inv_table[sv_elements]].astype(np.int64)
        self._m_ext = None

    def _ext_map(self) -> np.ndarray:
        """(L*s, L*Q) map from a group's chip LLRs to its extrinsic symbol LLRs.

        Block (i, l) is ``wt[:, lam * inv(s_l) * s_i]``, the own-position
        block (l, l) is zero, and so is column lam = 0 of every block.
        """
        if self._m_ext is None:
            cols = self.idx_tot[:, self.idx_ext]                      # (L_i, L_l, Q)
            m = self.wt[:, cols]                                      # (s, L_i, L_l, Q)
            m[:, np.arange(self.L), np.arange(self.L)] = 0.0
            self._m_ext = m.transpose(1, 0, 2, 3).reshape(self.L * self.s, self.L * self.q)
        return self._m_ext

    def symbol_llrs(self, chip_llrs: np.ndarray) -> np.ndarray:
        """(.., L, s) chip LLRs -> (.., L, Q) a-priori symbol LLR vectors."""
        return chip_llrs @ self.wt

    def total_llrs(self, lsym: np.ndarray) -> np.ndarray:
        """All-positions symbol LLR vector: ltot[lam] = sum_i lsym[i, lam*s_i]."""
        idx = np.broadcast_to(self.idx_tot, lsym.shape)
        return np.take_along_axis(lsym, idx, axis=-1).sum(axis=-2)

    def extrinsic_symbol_llrs(self, lsym: np.ndarray) -> np.ndarray:
        """Leave-one-out symbol LLRs for every position, via total minus own term."""
        ltot = self.total_llrs(lsym)
        idx = np.broadcast_to(self.idx_ext, lsym.shape)
        gathered = np.take_along_axis(
            np.broadcast_to(ltot[..., None, :], lsym.shape), idx, axis=-1
        )
        return gathered - lsym

    def chip_llrs(self, sym_llrs: np.ndarray) -> np.ndarray:
        """(.., Q) symbol LLR vectors -> (.., s) chip LLRs by marginalization.

        Each chip LLR is log(mass of the elements whose bit is +1) minus
        log(mass of those whose bit is -1).  For Q <= 4 every bit gets
        two half-size log-sum-exps over the ordered vector.  For Q >= 8
        one ``exp`` of the max-shifted vector feeds two matmuls with the
        0/1 bit-class indicator matrices, giving both masses of all s bits
        at once.  A row where some class mass is not a positive normal
        float (the whole class underflowed, or the input is not finite)
        is recomputed by masked log-sum-exp, so extreme and +/-inf inputs
        give what the log-sum-exp path gives.
        """
        if self.q <= _MAX_LSE_Q:
            return self._chip_llrs_lse(sym_llrs)
        # non-finite and underflowed rows are recomputed after the block
        with np.errstate(divide="ignore", invalid="ignore"):
            e = sym_llrs - np.max(sym_llrs, axis=-1, keepdims=True)
            np.exp(e, out=e)
            p_plus = e @ self.mass_plus
            p_minus = e @ self.mass_minus
            del e
            bad = None
            if not np.minimum(p_plus, p_minus).min(initial=np.inf) >= _TINY:
                bad = ~((p_plus >= _TINY) & (p_minus >= _TINY)).all(axis=-1)
            out = np.log(p_plus, out=p_plus)
            out -= np.log(p_minus, out=p_minus)
        if bad is not None:
            out[bad] = self._chip_llrs_masked(sym_llrs, bad)
        return out

    def _chip_llrs_masked(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Masked log-sum-exp marginalization of the selected rows only."""
        sel = np.nonzero(rows)
        xr = x[sel][:, None, :]                                       # (r, 1, Q)
        plus = self.mass_plus[sel[0]] if self.mass_plus.ndim == 3 else self.mass_plus
        plus = np.swapaxes(plus, -1, -2) > 0                          # (.., s, Q)
        return (_lse(np.where(plus, xr, -np.inf))
                - _lse(np.where(plus, -np.inf, xr)))

    def _chip_llrs_lse(self, sym_llrs: np.ndarray) -> np.ndarray:
        """Per-bit marginalization by log-sum-exps over the ordered halves."""
        half = self.q // 2
        out = np.empty(sym_llrs.shape[:-1] + (self.s,))
        for n in range(self.s):
            if self.order.ndim == 4:
                ordered = np.take_along_axis(sym_llrs, self.order[..., n], axis=-1)
            else:
                ordered = sym_llrs[..., self.order[:, n]]
            out[..., n] = _lse(ordered[..., half:]) - _lse(ordered[..., :half])
        return out

    def despread(self, chip_llrs: np.ndarray) -> np.ndarray:
        """Full FF-DES: (.., L, s) prior chip LLRs -> (.., L, s) extrinsic chip LLRs."""
        lead = chip_llrs.shape[:-2]
        rows = self.L * self.s
        if self.batched or rows > math.prod(lead):
            return self.chip_llrs(self.extrinsic_symbol_llrs(self.symbol_llrs(chip_llrs)))
        ext = chip_llrs.reshape(lead + (rows,)) @ self._ext_map()
        return self.chip_llrs(ext.reshape(lead + (self.L, self.q)))

    def total_bit_llrs(self, chip_llrs: np.ndarray) -> np.ndarray:
        """Hard-decision input: (.., L, s) prior chip LLRs -> (.., s) posterior bit LLRs.

        For shared kernels; a per-sample total goes to ``chip_llrs`` as (b, 1, Q).
        """
        return self.chip_llrs(self.total_llrs(self.symbol_llrs(chip_llrs)))


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
    out = kern.despread(prior.reshape(prior.shape[:-1] + (L, s)))
    return out.reshape(prior.shape)


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
    la_x = np.zeros((K, T))
    la_c = np.zeros((K, T))
    trace = np.zeros((iterations, K))

    for it in range(iterations):
        ese = _ese_all(y, la_x, params.amplitude, params.n0)
        np.clip(ese, -LLR_MAX, LLR_MAX, out=ese)
        for k, sp in enumerate(specs):
            permute(ese[k], sp.interleaver, "inverse", out=la_c[k])
            groups = la_c[k].reshape(sp.n_symbols, sp.L, sp.s)
            le = kernels[k].despread(groups)
            np.clip(le, -LLR_MAX, LLR_MAX, out=le)
            extr = permute(le.reshape(-1), sp.interleaver, "forward")
            la_x[k] *= DAMPING
            la_x[k] += (1.0 - DAMPING) * extr
            if true_chips is not None:
                trace[it, k] = float(np.mean(true_chips[k] * extr))
            else:
                trace[it, k] = float(np.mean(np.abs(extr)))

    s_n = specs[0].s * specs[0].n_symbols
    bit_llrs = np.empty((K, s_n))
    for k, sp in enumerate(specs):
        groups = la_c[k].reshape(sp.n_symbols, sp.L, sp.s)
        bit_llrs[k] = kernels[k].total_bit_llrs(groups).reshape(-1)
    decisions = np.where(bit_llrs >= 0, 1, -1).astype(np.int8)
    return DecodeResult(decisions=decisions, bit_llrs=bit_llrs, trace=trace,
                        chip_priors=la_c)
