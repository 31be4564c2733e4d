"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles
(probability-domain enumeration, direct repetition combining) rather
than reusing the library's log-domain kernels.
"""

from fractions import Fraction
from itertools import accumulate
from math import comb

import numpy as np


def lse(values):
    values = np.asarray(values, dtype=np.float64)
    m = values.max()
    return m + np.log(np.exp(values - m).sum())


def map_despread_oracle(prior_chip_llrs, sv, mapper, field):
    """Brute-force extrinsic chip LLRs: enumerate the 2^s candidate symbols,
    form each position's posterior from chip-wise likelihoods, marginalize."""
    s, L, q = mapper.s, sv.elements.size, field.q
    prior = np.asarray(prior_chip_llrs, dtype=np.float64).reshape(L, s)
    # per-position symbol log-likelihoods up to a constant:
    # log P(chips of lam | priors) = sum_m bit_m(lam) * La_m / 2
    logp = (mapper.signs[None, :, :] * prior[:, None, :] / 2.0).sum(axis=-1)  # (L, Q)
    out = np.empty((L, s))
    for ell in range(L):
        for n in range(s):
            pos, neg = [], []
            for beta in range(q):
                gamma = field.mul_table[beta, sv.elements]
                w = sum(logp[i, gamma[i]] for i in range(L) if i != ell)
                if mapper.signs[gamma[ell], n] > 0:
                    pos.append(w)
                else:
                    neg.append(w)
            out[ell, n] = lse(pos) - lse(neg)
    return out.reshape(-1)


def map_decision_oracle(prior_chip_llrs, sv, mapper, field):
    """Brute-force total bit LLRs: full posterior over the symbol, all L
    positions included, marginalized per info bit."""
    s, L, q = mapper.s, sv.elements.size, field.q
    prior = np.asarray(prior_chip_llrs, dtype=np.float64).reshape(L, s)
    logp = (mapper.signs[None, :, :] * prior[:, None, :] / 2.0).sum(axis=-1)
    out = np.empty(s)
    for n in range(s):
        pos, neg = [], []
        for beta in range(q):
            gamma = field.mul_table[beta, sv.elements]
            w = sum(logp[i, gamma[i]] for i in range(L))
            if mapper.signs[beta, n] > 0:
                pos.append(w)
            else:
                neg.append(w)
        out[n] = lse(pos) - lse(neg)
    return out


def repetition_idma_decoder(y, interleavers, params, iterations, llr_max=50.0,
                            damping=0.5):
    """Conventional repetition-spreading chip-by-chip decoder (s=1 only).

    Independent of the library decoder: the despreader is the direct
    leave-one-out sum over each symbol's L chips, and the decision LLR is
    the plain sum (the info bit equals its chips for any s=1 bijection).
    Returns (decisions, bit_llrs).
    """
    K = len(interleavers)
    T = y.size
    a = params.amplitude
    n0 = params.n0
    L = params.L
    n_sym = T // L
    la_x = np.zeros((K, T))
    la_c = np.zeros((K, T))
    inverses = [np.argsort(il.perm) for il in interleavers]
    for _ in range(iterations):
        t = np.tanh(la_x / 2.0)
        v = 1.0 - t * t
        st, sv_ = t.sum(axis=0), v.sum(axis=0)
        new = np.empty_like(la_x)
        for k in range(K):
            num = 2.0 * a * (y - a * (st - t[k]))
            den = a * a * (sv_ - v[k]) + n0 / 2.0
            e = np.clip(num / den, -llr_max, llr_max)
            la_c[k] = e[inverses[k]]
            grp = la_c[k].reshape(n_sym, L)
            ext = np.stack(
                [grp[:, [i for i in range(L) if i != ell]].sum(axis=1)
                 for ell in range(L)], axis=1)
            ext = np.clip(ext, -llr_max, llr_max)
            new[k] = ext.reshape(-1)[interleavers[k].perm]
        la_x = damping * la_x + (1.0 - damping) * new
    bit_llrs = np.empty((K, n_sym))
    for k in range(K):
        bit_llrs[k] = la_c[k].reshape(n_sym, L).sum(axis=1)
    decisions = np.where(bit_llrs >= 0, 1, -1).astype(np.int8)
    return decisions, bit_llrs


def random_despread_instance(rng, s_max=4, L_max=4, scale=3.0):
    """Random (field, mapper, sv, priors) tuple for oracle comparisons."""
    from ffspread.codec import random_spreading
    from ffspread.gf import build_field, random_mapper

    s = int(rng.integers(1, s_max + 1))
    L = int(rng.integers(1, L_max + 1))
    field = build_field(s)
    mapper = random_mapper(s, int(rng.integers(2**31)))
    sv = random_spreading(field, L, int(rng.integers(2**31)))
    prior = rng.normal(0.0, scale, size=s * L)
    return field, mapper, sv, prior


def _despread_float32(kern, x):
    """FF-DES of (L*s, N) float64 priors computed in float32: extrinsic
    symbol LLRs, max-shifted exp, class masses, then the float64 cast of
    the difference of their logs (+/-inf where a class mass is 0)."""
    s = kern.s
    ext = (kern.ext_map.astype(np.float32) @ x.astype(np.float32)).reshape(kern.L, kern.q, -1)
    e = np.exp(ext - ext.max(axis=1, keepdims=True))
    with np.errstate(divide="ignore"):
        logs = np.log(kern.masks.astype(np.float32) @ e)
    return (logs[:, :s] - logs[:, s:]).astype(np.float64).reshape(x.shape)


def reference_decode_frame(y, specs, params, iterations, true_chips=None, stop_after=0):
    """The library's frame loop written plainly, serial and allocating.

    Each user is deinterleaved by a scatter, despread into fresh arrays,
    clipped, re-interleaved by a gather and damped, with the library's
    own kernels, so ``decode_frame`` must match it bit for bit.  For s > 1
    the despread runs in float32, as the frame's buffers do: the priors
    and the extrinsic map are cast down, marginalized by max, exp, class
    masses and log, and the difference of the class logs is cast back to
    float64 before the clip.  The decision reads stay float64.  The stop
    rule compares each iteration's hard decisions, the signs of the total
    bit LLRs of its deinterleaved ESE output, with the previous
    iteration's, and stops once ``stop_after`` iterations in a row after
    the first changed none.
    """
    from ffspread.codec import chip_slots
    from ffspread.decoder import DAMPING, LLR_MAX, DecodeResult, _CodeKernel, _ese_all

    K, T, s = len(specs), y.size, specs[0].s
    cols = (specs[0].L * s, specs[0].n_symbols)
    kernels = [_CodeKernel(sp.sv.field, sp.mapper.signs, sp.sv.elements) for sp in specs]
    slots = [chip_slots(sp) for sp in specs]
    la_x = np.zeros((K, T))
    la_c = np.empty((K, T))
    trace = np.zeros((iterations, K))
    decided = [None] * K
    unchanged = 0  # iterations in a row, after the first, that changed no decision
    for it in range(iterations):
        ese = _ese_all(y, la_x, params.amplitude, params.n0)
        changed = 0
        for k in range(K):
            la_c[k][slots[k]] = ese[k]
            prior = la_c[k].reshape(cols)
            now = kernels[k].total_bit_llrs(prior) >= 0
            if decided[k] is not None:
                changed += int(np.count_nonzero(now != decided[k]))
            decided[k] = now
            le = _despread_float32(kernels[k], prior) if s > 1 else kernels[k].despread(prior)
            le = np.clip(le, -LLR_MAX, LLR_MAX)
            extr = le.reshape(-1)[slots[k]]
            trace[it, k] = np.mean(np.abs(extr) if true_chips is None else true_chips[k] * extr)
            la_x[k] = DAMPING * la_x[k] + (1.0 - DAMPING) * extr
        unchanged = unchanged + 1 if it > 0 and changed == 0 else 0
        if stop_after and unchanged >= stop_after:
            break
    bit_llrs = np.stack([kern.total_bit_llrs(la_c[k].reshape(cols)).T.reshape(-1)
                         for k, kern in enumerate(kernels)])
    return DecodeResult(decisions=np.where(bit_llrs >= 0, 1, -1).astype(np.int8),
                        bit_llrs=bit_llrs, trace=trace[:it + 1],
                        chip_priors=la_c.reshape(K, *cols).transpose(0, 2, 1).reshape(K, T),
                        iterations=it + 1)


def reference_weight_cdf_counts(s, L):
    """Cumulative coefficients of (sum_{i<s} C(s, i) x^i)^(L-1), by L-1
    schoolbook polynomial products."""
    coeffs = [comb(s, i) for i in range(s)]
    poly = [1]
    for _ in range(L - 1):
        nxt = [0] * (len(poly) + len(coeffs) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(coeffs):
                nxt[i + j] += a * b
        poly = nxt
    return list(accumulate(poly))


def reference_g_oracle_exact(s, L):
    """Slope by decoding each joint realization index digit by digit: the
    (2^s-1)^((L-1) 2^(s-1)) indices are enumerated whole, so keep s, L small."""
    if L == 1:
        return Fraction(0)
    m = 2**s - 1
    n_j = 1 << (s - 1)
    n_draws = (L - 1) * n_j
    weights = np.array([v.bit_count() for v in range(m)], dtype=np.int16)
    count = m**n_draws
    cur = np.arange(count, dtype=np.int64)
    per_j = np.zeros((n_j, count), dtype=np.int16)
    for pos in range(n_draws):
        digit = cur % m
        cur //= m
        per_j[pos // (L - 1)] += weights[digit]
    total = int(np.max(per_j, axis=0).sum(dtype=np.int64))
    return Fraction(s * (L - 1)) - Fraction(total, count)


def reference_g_oracle_montecarlo(s, L, samples, seed):
    """Monte-Carlo slope (mean, standard error), drawn as the library draws:
    4096-sample chunks, chunk c seeded ``(seed, c)``, each in sub-batches of
    min(2^17 // 2^(s-1), 4096, samples) rows.  A group's L-1 draws come as
    tuples of k, k the largest tuple length <= L-1 with (2^s-1)^k <= 2^16,
    the remainder last, and consecutive tuples share a word while it holds
    at most (2^s-1)^w <= 2^32 values for its w positions.  Each sub-batch
    draws each word once, a (2^(s-1), rows) int64 array of uniform values
    below (2^s-1)^w, and decodes it digit by digit with % and //.  Chunk
    sums are added in chunk order."""
    m = 2**s - 1
    n_j = 1 << (s - 1)
    weights = np.array([v.bit_count() for v in range(m)], dtype=np.int64)
    k = max(j for j in range(1, L) if m**j <= 1 << 16)
    tuples = [min(k, L - 1 - first) for first in range(0, L - 1, k)]
    words = [0]                      # positions per word
    for width in tuples:
        if words[-1] and m ** (words[-1] + width) > 1 << 32:
            words.append(0)
        words[-1] += width
    chunk = 1 << 12
    rows = min(max(1, (1 << 17) // n_j), chunk, samples)
    acc, acc2 = 0.0, 0.0
    for c in range(-(-samples // chunk)):
        rng = np.random.default_rng((seed, c))
        b = min(chunk, samples - c * chunk)
        vals = []
        for lo in range(0, b, rows):
            w = np.zeros((n_j, min(rows, b - lo)), dtype=np.int64)
            for width in words:
                cur = rng.integers(0, m**width, size=w.shape, dtype=np.int64)
                for _ in range(width):
                    w += weights[cur % m]
                    cur //= m
            vals.append(s * (L - 1) - w.max(axis=0).astype(np.float64))
        vals = np.concatenate(vals)
        acc += float(vals.sum())
        acc2 += float((vals * vals).sum())
    mean = acc / samples
    if samples > 1:
        var = max(acc2 - samples * mean * mean, 0.0) / (samples - 1)
        se = float(np.sqrt(var / samples))
    else:
        se = float("nan")
    return mean, se
