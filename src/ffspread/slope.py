"""Asymptotic slope of the despreader transfer function and the BER
prediction built on it.

The closed form for the slope g(s, L) is evaluated in exact big-integer
rational arithmetic: the inner counts are raised to the 2^(s-1) power
against a (2^s - 1)^((L-1) 2^(s-1)) denominator, which overflows doubles
long before the parameter ranges of interest.

An independent oracle computes the same quantity from its probabilistic
definition,

    g = s(L-1) - E[ max_j  sum_i weight(r_{j,i}) ],

with r_{j,i} drawn i.i.d. uniformly from the length-s binary vectors
excluding all-ones (j = 1..2^(s-1), i = 1..L-1), either by full
enumeration of the joint realizations (exact, as a rational) or by
Monte Carlo.  The enumeration lists one group's weight sums, one entry
per realization of its L-1 draws, and takes the max over the Cartesian
product of the 2^(s-1) independent groups: every joint realization
appears once, with its max taken directly, so no CDF or power identity
of the closed form is involved.  Monte Carlo samples on the EXIT
estimators' chunked sampler, bit-identical for any thread count.  One
uniform integer of at most 2^32 values, a word, draws consecutive
k-tuples of a group's positions, split into indices of the enumeration's
tables of k-tuple weight sums: 1 draw per group at s = 4, L = 8.  A
sampling thread holds one sub-batch of draws and sums, about 2.5 MiB at
most.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import accumulate
from math import comb, erfc, sqrt

import numpy as np

from .analysis import _mc_mean

EXACT_ENUM_BUDGET = 10**7
_erfc = np.vectorize(erfc, otypes=[np.float64])   # Eb/N0 lists are short


def _weight_cdf_counts(s: int, L: int) -> list[int]:
    """counts[j] = number of (L-1)-tuples over the excluded-all-ones vectors
    whose total weight is <= j, weighted by nothing (plain counts).

    The weights' generating polynomial is f^n, n = L-1, with f_i = C(s, i)
    for i <= s-1 and f_0 = 1, so its coefficients follow J. C. P. Miller's
    power recurrence (Knuth, TAOCP Vol. 2, 4.7):
    t p_t = sum_{i=1}^{min(t, s-1)} ((n+1) i - t) f_i p_{t-i}, the division exact.
    """
    n = L - 1
    f = [comb(s, i) for i in range(s)]  # weight-i vectors, i <= s-1
    poly = [1]
    for t in range(1, (s - 1) * n + 1):
        poly.append(sum(((n + 1) * i - t) * f[i] * poly[t - i]
                        for i in range(1, min(t, s - 1) + 1)) // t)
    return list(accumulate(poly))


@cache
def g_closed_form(s: int, L: int) -> Fraction:
    """Closed-form asymptotic slope g(s, L) as an exact rational.

    g = L - 1 + (2^s-1)^(-(L-1) 2^(s-1)) *
        sum_{k=1}^{(s-1)(L-1)} (#{weight sum <= k-1})^(2^(s-1))

    For s = 1 the sum is empty, giving L - 1; for L = 1 the slope is 0.
    Memoized: the big-integer powers dominate, and a slope table and its
    predictions ask for the same (s, L) several times.
    """
    if s < 1 or L < 1:
        raise ValueError("s and L must be >= 1")
    if L == 1:
        return Fraction(0)
    kmax = (s - 1) * (L - 1)
    if kmax == 0:
        return Fraction(L - 1)
    counts = _weight_cdf_counts(s, L)
    power = 1 << (s - 1)
    denom = (2**s - 1) ** ((L - 1) * power)
    total = sum(counts[k - 1] ** power for k in range(1, kmax + 1))
    return Fraction(L - 1) + Fraction(total, denom)


def _exact_count(s: int, L: int) -> int:
    """Joint realizations an exact oracle enumerates: (2^s-1)^((L-1) 2^(s-1))."""
    return (2**s - 1) ** ((L - 1) << (s - 1))


@dataclass(frozen=True)
class OracleResult:
    value: Fraction | float
    method: str                 # "exact enumeration" or "monte carlo"
    std_error: float | None = None


def _weight_sums(s: int, k: int) -> np.ndarray:
    """Total weight of every k-tuple of draws from the m = 2^s-1 vectors
    other than all-ones, m^k int16 entries built by k outer sums: entry i
    is the tuple whose draws are i's base-m digits, most significant first."""
    weights = np.array([v.bit_count() for v in range(2**s - 1)], dtype=np.int16)
    table = np.zeros(1, dtype=np.int16)
    for _ in range(k):
        table = np.add.outer(table, weights).reshape(-1)
    return table


def g_oracle(s: int, L: int, mode: str = "exact", samples: int = 200_000,
             seed=0) -> OracleResult:
    """Slope from the probabilistic definition, independent of the closed form.

    ``exact`` enumerates every joint realization of the (L-1) * 2^(s-1)
    uniform draws (refused above EXACT_ENUM_BUDGET realizations).  It
    builds the weight-sum vector of one group, (2^s-1)^(L-1) entries, one
    per realization of that group's draws; the groups are i.i.d., so the
    Cartesian product of 2^(s-1) copies of it lists every joint
    realization once, and the outer max over that product gives each
    one's max_j directly.  The mean over those maxima is the exact
    expectation, summed in integers, without the CDF-power identity the
    closed form rests on.

    ``montecarlo`` samples the draws on ``analysis._mc_mean`` (``seed``:
    an int or a sequence of ints; ``samples`` >= 1), bit-identical for any
    thread count.  One uniform index below m^k, m = 2^s-1, is k i.i.d.
    draws read as base-m digits.  A group's L-1 draws are tuples of k, the
    largest tuple length <= L-1 with m^k <= 2^16 (4 at s = 4, 10 at s = 2,
    1 from s = 9 on), and a shorter last tuple for the remainder; each
    tuple's total weight is one lookup in its weight-sum table, the same
    table exact mode builds for L-1 draws.  Consecutive tuples share a
    word while its w positions take m^w <= 2^32 values: one word at (4, 8),
    (2, 16) and (10, 3), four at (8, 16).  Each sub-batch of ``step`` rows
    draws every word once, as a (2^(s-1), step) int64 array that numpy
    fills with one 32-bit draw per value, splits it into tuple indices
    with // and a multiply-subtract, and adds their lookups into
    (2^(s-1), step) sums, int16 while s(L-1) < 2^15 and int32 beyond.  So
    a thread holds one sub-batch of at most ``KERNEL_ENTRIES`` draws,
    sums and, where a word splits, leading indices, about 2.5 MiB,
    whatever s, L and the thread count.  As for an EXIT point, the first
    threaded call sets OpenBLAS to one thread for the process.
    """
    if s < 1 or L < 1:
        raise ValueError("s and L must be >= 1")
    if mode not in ("exact", "montecarlo"):
        raise ValueError(f"mode must be 'exact' or 'montecarlo', got {mode!r}")
    if mode == "montecarlo" and samples < 1:
        raise ValueError("samples must be >= 1")
    if L == 1:
        return OracleResult(Fraction(0), "exact enumeration")
    n_j = 1 << (s - 1)

    if mode == "exact":
        count = _exact_count(s, L)
        if count > EXACT_ENUM_BUDGET:
            raise ValueError(
                f"exact enumeration needs {count} joint realizations "
                f"(> {EXACT_ENUM_BUDGET}); use mode='montecarlo'"
            )
        group = _weight_sums(s, L - 1)            # one group's weight sums
        best = group                              # max over the groups so far
        for _ in range(n_j - 1):
            best = np.maximum.outer(best, group).reshape(-1)
        total = int(best.sum(dtype=np.int64))    # best.size == count
        value = Fraction(s * (L - 1)) - Fraction(total, count)
        return OracleResult(value, "exact enumeration")

    m = 2**s - 1                       # int16 tuple tables: m^k <= 2^16 entries
    k = 1
    while k < L - 1 and m ** (k + 1) <= 1 << 16:
        k += 1
    full, rest = divmod(L - 1, k)
    words = []                         # tuple lengths per word, most significant first
    for w in [k] * full + ([rest] if rest else []):
        if words and m ** (sum(words[-1]) + w) <= 1 << 32:
            words[-1].append(w)
        else:
            words.append([w])
    tables = {w: _weight_sums(s, w) for word in words for w in word}
    # int16 while s(L-1), above every sum and value, fits: half the bytes, faster adds
    sums_type = np.int16 if s * (L - 1) < 1 << 15 else np.int32

    def sampler(step: int):
        # a word's leading tuple indices, needed only where a word splits
        lead_space = np.empty(n_j * step * any(len(word) > 1 for word in words), np.int64)
        sums_space = np.empty(n_j * step, sums_type)

        def one_batch(rng: np.random.Generator, out: np.ndarray) -> None:
            sums = sums_space[:n_j * len(out)].reshape(n_j, -1)   # group-major: max down columns
            sums.fill(0)
            for word in words:
                tail = m ** sum(word)
                idx = rng.integers(0, tail, size=sums.shape, dtype=np.int64)
                for w in word[:-1]:        # peel tuples off the top: // and multiply-subtract
                    tail //= m**w
                    lead = lead_space[:idx.size].reshape(idx.shape)
                    np.floor_divide(idx, tail, out=lead)
                    np.add(sums, tables[w].take(lead), out=sums)
                    np.multiply(lead, tail, out=lead)
                    np.subtract(idx, lead, out=idx)
                np.add(sums, tables[word[-1]].take(idx), out=sums)
                del idx                    # before the next word's draw
            np.subtract(s * (L - 1), sums.max(axis=0), out=out)
        return one_batch

    mean, se = _mc_mean(sampler, samples, seed, entries=n_j)
    return OracleResult(mean, "monte carlo", se)


def standard_slope_exact(s: int, L: int) -> Fraction:
    """g(s, L+1) / L as an exact rational."""
    return g_closed_form(s, L + 1) / L


def standard_slope(s: int, L: int) -> float:
    """Predicted absolute slope of ln(BER) versus linear Eb/N0 at low BER."""
    return float(standard_slope_exact(s, L))


def _qfunc(x):
    """Gaussian tail probability Q(x), elementwise."""
    return 0.5 * _erfc(x * sqrt(0.5))


def predict_ber(s: int, L: int, eb_n0_linear) -> tuple[np.ndarray, np.ndarray]:
    """Asymptotic hard-decision BER estimate and its exponential upper bound.

    estimate = Q(sqrt(2 g(s, L+1) Eb / (L N0))),  bound = exp(-gstd(s, L) Eb/N0).
    """
    x = np.asarray(eb_n0_linear, dtype=np.float64)
    if not np.all(x > 0):          # also refuses NaN
        raise ValueError("eb_n0_linear must be > 0")
    g = g_closed_form(s, L + 1)
    est = _qfunc(np.sqrt(2.0 * float(g) * x / L))
    bound = np.exp(-float(g / L) * x)  # standard_slope(s, L) without a second g
    return est, bound


@dataclass(frozen=True)
class SlopeReport:
    s: int
    L: int
    g_closed: Fraction
    g_closed_float: float
    g_oracle: OracleResult
    g_std: float


def slope_report(s: int, L: int, samples: int = 200_000, seed=0) -> SlopeReport:
    """Closed form, oracle cross-check (exact within ``EXACT_ENUM_BUDGET``,
    else Monte Carlo) and standard slope for one (s, L)."""
    g = g_closed_form(s, L)                       # validates s and L
    mode = "exact" if _exact_count(s, L) <= EXACT_ENUM_BUDGET else "montecarlo"
    return SlopeReport(
        s=s, L=L, g_closed=g, g_closed_float=float(g),
        g_oracle=g_oracle(s, L, mode=mode, samples=samples, seed=seed),
        g_std=standard_slope(s, L),
    )
