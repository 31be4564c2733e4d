"""Transfer (EXIT) functions of the despreader and the signal estimator
under the consistent-Gaussian prior model, plus the two-curve
convergence-tunnel check.

Priors follow the standard model: for a chip c, the product c * L_a is
drawn from N(m_a, 2 m_a).  Curves map the prior mean m_a to the
extrinsic mean m_e.

Three estimators:

* ``exit_ffdes_exact`` runs the production despreading kernel on sampled
  priors (fresh random mapper, read in chip-pattern coordinates, nonzero
  spreading vector and chips per sample) and averages c * L_e over one
  randomly chosen output chip.
* ``exit_ffdes_approx`` averages the closed sampling form

      s(L-1) m_a - log sum_j exp(sum_i r_{j,i} . h_i)
                 + log(1 + sum_j exp(-sum_i r'_{j,i} . h_i))

  with r uniform over length-s binary vectors excluding all-ones,
  r' excluding all-zeros, and h_i i.i.d. N(m_a, 2 m_a) entries.
* ``exit_ese`` averages 4 / (2 sum_i (1 - tanh^2(h_i)) + L/(Eb/N0))
  with h_i i.i.d. N(m_a/2, m_a/2), i = 1..K-1.

Sampling is chunked (4096 samples per chunk, one child seed per chunk).
The chunks are split round-robin over the decoder's thread pool, and
their sums are added in chunk order once all have finished.
``_mc_mean`` runs the one sub-batch loop for every sampler: it walks
each chunk in sub-batches of p samples, and each sub-batch draws its
samples from the chunk's stream and writes their values into a view of
the thread's chunk buffer.  p keeps a sub-batch of the sampler's stated
entries per sample within ``KERNEL_ENTRIES`` and depends on the point
alone, not on the thread count, so a chunk's values, and so means,
standard errors and CSVs, are bit-identical for any thread count.  Each
thread computes its sub-batches in one workspace per point: a single
block, carved into views that the sub-batch arrays are written into with
``out=``, one size for every thread, so T threads hold T of them.  The
sampler allocates no sub-batch temporaries of kernel size, which would
sit at the allocator's mmap threshold and be page-faulted afresh.
Both despreader estimators lay a sub-batch's gathered terms out
position-major, (L, p, .), so every sum over spreading positions runs
down the leading axis; ``exit_ffdes_exact`` marginalizes with samples as
columns, (Q, p), and ``exit_ffdes_approx`` takes its dot products as one
(p*(L-1), s) @ (s, Q) GEMM.
The slope oracle's Monte-Carlo mode (``slope.g_oracle``) samples on the
same ``_mc_mean``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .decoder import _CodeKernel, _lse, _run_split, _task_threads
from .gf import _sign_basis, build_field

CHUNK = 1 << 12
# float64 entries of one per-sample array of a thread's sub-batch, e.g. the
# (p, L, Q) gathers or (p, K-1) ESE priors of its p samples: 1 MiB per thread.
# exit_ffdes_exact's workspace holds three, exit_ffdes_approx's two and exit_ese
# draws one, whatever the thread count; ``ffspread exit`` refuses a larger sample.
KERNEL_ENTRIES = 1 << 17
DEFAULT_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0, 30.0, 40.0)
TUNNEL_ROUNDS = 2000  # most rounds of tunnel_check's recursion


@dataclass(frozen=True)
class ExitCurve:
    """Sampled transfer points with per-point Monte-Carlo standard errors."""

    m_a: np.ndarray
    m_e: np.ndarray
    std_err: np.ndarray
    samples: int

    def __post_init__(self):
        if np.any(np.diff(self.m_a) <= 0):
            raise ValueError("m_a grid must be strictly increasing")
        if self.m_a.shape != self.m_e.shape or self.m_a.shape != self.std_err.shape:
            raise ValueError("grid, estimates and standard errors must align")


def _seed_tuple(seed, *tags: int) -> tuple[int, ...]:
    """Flatten a seed (int or sequence of ints) and append integer stream tags."""
    if seed is None:
        base = (0,)
    elif isinstance(seed, (int, np.integer)):
        base = (int(seed),)
    else:
        base = tuple(int(v) for v in seed)
    return base + tuple(int(t) for t in tags)


def _mc_mean(sampler, samples: int, seed, entries: int) -> tuple[float, float]:
    """Chunked Monte-Carlo mean and standard error of a per-sample statistic.

    ``sampler(step)`` runs once per thread and returns that thread's
    ``one_batch(rng, out)``, which draws ``len(out)`` samples from the
    chunk's ``rng`` and writes their values into ``out``.  Each chunk is
    walked in sub-batches of ``step`` samples, into views of one per-thread
    chunk buffer.  With ``entries`` per-sample entries, ``step`` keeps a
    sub-batch within ``KERNEL_ENTRIES``; it is at most one chunk and at most
    ``samples``, so a workspace sized from it holds no row that is never
    used.  It depends on ``entries`` and ``samples`` alone, not on the
    thread count, so every thread's workspace is one size and a chunk's
    draws and values are the same for any thread count.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    chunks = -(-samples // CHUNK)
    threads = _task_threads(chunks)
    step = min(max(1, KERNEL_ENTRIES // max(1, entries)), CHUNK, samples)
    sums = [(0.0, 0.0)] * chunks   # (sum, sum of squares) of each chunk

    def run(part: range) -> None:
        one_batch = sampler(step)
        vals = np.empty(min(CHUNK, samples))
        for c in part:
            rng = np.random.default_rng(_seed_tuple(seed, c))
            b = min(CHUNK, samples - c * CHUNK)
            for lo in range(0, b, step):
                one_batch(rng, vals[lo:min(lo + step, b)])
            v = vals[:b]
            sums[c] = float(v.sum()), float((v * v).sum())

    _run_split(run, range(chunks), threads)
    acc, acc2 = 0.0, 0.0   # plain addition: builtin sum() compensates from Python 3.12
    for c_sum, c_sum2 in sums:
        acc += c_sum
        acc2 += c_sum2
    mean = acc / samples
    if samples > 1:
        var = max(acc2 - samples * mean * mean, 0.0) / (samples - 1)
        se = float(np.sqrt(var / samples))
    else:
        se = float("nan")
    return mean, se


def _workspace(*sizes: int) -> list[np.ndarray]:
    """Flat float64 regions of ``sizes`` entries, carved from one block."""
    return np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])


def _shaped(region: np.ndarray, dtype, *shape: int) -> np.ndarray:
    """The C-contiguous ``shape`` array of ``dtype`` at the start of ``region``."""
    return region.view(dtype)[:math.prod(shape)].reshape(shape)


def _pattern_bit_llrs(kern: _CodeKernel, field, forward, pattern, sv, x,
                      ws: list[np.ndarray]) -> np.ndarray:
    """(s, p) total bit LLRs, one column per sample, of (p, s, L) chips ``x``;
    sample b maps chip pattern v to element ``forward[b, v]``, ``pattern[b]``
    is the inverse and ``sv[b]`` spreads.  With P the natural-mapper ``kern``'s
    symbol LLRs, the total in pattern coordinates,
    t[v] = sum_i P[pattern[forward[v] * s_i], i], is the sample's own total
    plus a constant, which marginalization cancels.

    The terms of t are gathered position-major, (L, p, Q), so the sum over
    positions runs down the leading axis, and the totals are marginalized
    with samples as columns, (Q, p), so the class masses are one GEMM.  p
    depends on the point alone, not on the thread count, so a sample's
    value may depend on p but not on how many threads sample.

    Everything before the marginalization is computed into ``ws``, three
    regions of at least p*L*Q entries; the int16 ``forward`` and ``pattern``
    become int64 indices there.  Each array goes to a region whose contents
    have been read, so ``pattern`` may sit at the start of the first region
    and ``x`` at the start of the second.  ``take`` clips its in-range
    indices: a bounds-checked ``take`` buffers its ``out``.
    """
    p, L, q = len(x), x.shape[-1], field.q
    a, b, c = ws
    off = np.arange(p)[:, None] * q                                          # (p, 1)
    idx = np.add(pattern, off, out=_shaped(c, np.int64, p, q))
    sym = kern.symbol_llrs(x, out=_shaped(a, np.float64, p, q, L))
    lsym = np.take(sym.reshape(-1, L), idx, axis=0, mode="clip",
                   out=_shaped(b, np.float64, p, q, L))                      # (p, Q, L)
    elems = np.take(field.mul_table, sv, axis=0, mode="clip", out=_shaped(a, np.int16, p, L, q))
    cols = np.multiply(elems.transpose(1, 0, 2), L, out=_shaped(c, np.int64, L, p, q),
                       dtype=np.int64)
    cols += (off.T * L + np.arange(L)[:, None])[:, :, None]                  # (L, p, 1)
    gathered = np.take(lsym, cols, mode="clip", out=_shaped(a, np.float64, L, p, q))
    tot = np.sum(gathered, axis=0, out=_shaped(b, np.float64, p, q))
    idx = np.add(forward.T, off.T, out=_shaped(c, np.int64, q, p))
    t = np.take(tot, idx, mode="clip", out=_shaped(a, np.float64, q, p))   # (Q, p)
    return kern.chip_llrs(t)


def exit_ffdes_exact(m_a: float, s: int, L: int, samples: int = 100_000,
                     seed=0) -> tuple[float, float]:
    """Despreader transfer point by sampling the production kernel.

    Each sample draws its own uniformly random mapper, nonzero spreading
    vector and symbol, builds consistent-Gaussian chip priors, and reads
    c * L_e at one random output chip of position l.  L_e comes from the
    decision path: position l's extrinsic symbol LLR, sum_{i != l}
    lsym[lam * s_i / s_l, i], is the total after relabeling s_i -> s_i / s_l
    (so s_l -> 1) with position l's prior chips, hence lsym[., l], zeroed.
    One kernel reads all samples (``_pattern_bit_llrs``) in sub-batches, each
    thread in its own workspace, bounding memory.
    """
    if not 0 <= m_a < math.inf:   # also refuses NaN
        raise ValueError("m_a must be finite and >= 0")
    field = build_field(s)
    q = field.q
    basis = _sign_basis(s)
    sigma = np.sqrt(2.0 * m_a)
    kern = _CodeKernel(field, basis, np.ones(L, dtype=np.int64))  # the natural mapper

    def sampler(step: int):
        ws = _workspace(*[step * L * q] * 3)

        def one_batch(rng: np.random.Generator, out: np.ndarray) -> None:
            p = len(out)
            rows = np.arange(p)
            forward = np.tile(np.arange(q, dtype=np.int16), (p, 1))
            rng.permuted(forward, axis=1, out=forward)
            sv = rng.integers(1, q, size=(p, L))
            beta = rng.integers(0, q, size=p)
            gamma = field.mul_table[beta[:, None], sv]
            h = rng.normal(m_a, sigma, size=(p, L, s))
            li = rng.integers(0, L, size=p)
            ni = rng.integers(0, s, size=p)
            # read position li through the total: its prior zeroed, s_li relabeled to 1
            h[rows, li] = 0.0
            sv = field.mul_table[sv, field.inv_table[sv[rows, li]][:, None]]
            pattern = _shaped(ws[0], np.int16, p, q)   # pattern[forward[v]] = v
            np.put_along_axis(pattern, forward, np.arange(q, dtype=np.int16), axis=1)
            chips = basis[np.take_along_axis(pattern, gamma, axis=1)]   # (p, L, s)
            x = np.multiply(chips.swapaxes(1, 2), h.swapaxes(1, 2),
                            out=_shaped(ws[1], np.float64, p, s, L))
            ext = _pattern_bit_llrs(kern, field, forward, pattern, sv, x, ws)
            np.multiply(chips[rows, li, ni], ext[ni, rows], out=out)
        return one_batch

    return _mc_mean(sampler, samples, seed, entries=L * q)


def exit_ffdes_approx(m_a: float, s: int, L: int, samples: int = 100_000,
                      seed=0) -> tuple[float, float]:
    """Upper-bound approximation of the despreader transfer point.

    Each sub-batch draws its own indices and priors and runs the closed
    form in its thread's workspace: the (p, L-1, Q) dot products, one GEMM,
    and the flat indices and terms of the sums gathered from them (half
    that size each), position-major, so each sum over positions runs down
    the leading axis.  The sums, first su, then sp, overwrite the indices
    they were gathered with.
    """
    if not 0 <= m_a < math.inf:   # also refuses NaN
        raise ValueError("m_a must be finite and >= 0")
    q = 1 << s
    n_j = 1 << (s - 1)
    sigma = np.sqrt(2.0 * m_a)
    bits01 = ((_sign_basis(s) + 1) // 2).astype(np.float64)      # (Q, s) 0/1 rows

    def sampler(step: int):
        g = step * n_j * (L - 1)
        # the indices' region also holds the sums: step * n_j entries, even at L = 1
        dots_ws, idx_ws, sel_ws = _workspace(step * (L - 1) * q, max(g, step * n_j), g)
        # flat offsets of the (step, L-1, Q) dots' rows, position-major: (L-1, step, 1)
        off = (np.arange(L - 1)[:, None] * q + np.arange(step) * ((L - 1) * q))[:, :, None]

        def gather_sum(dots: np.ndarray, idx: np.ndarray) -> np.ndarray:
            """sum_l dots[b, l, idx[b, j, l]], gathered in the workspace; the sums
            overwrite the flat indices."""
            n, m = idx.shape[:2]
            flat = np.add(idx.transpose(2, 0, 1), off[:, :n],
                          out=_shaped(idx_ws, np.int64, L - 1, n, m))
            sel = np.take(dots, flat, out=_shaped(sel_ws, np.float64, L - 1, n, m), mode="clip")
            return np.sum(sel, axis=0, out=_shaped(idx_ws, np.float64, n, m))

        def one_batch(rng: np.random.Generator, out: np.ndarray) -> None:
            n = len(out)
            # uint16 draws: q - 1 < 2^16 up to s = 16
            r_idx = rng.integers(0, q - 1, size=(n, n_j, L - 1), dtype=np.uint16)  # no all-ones
            rp_idx = rng.integers(1, q, size=(n, n_j - 1, L - 1), dtype=np.uint16)  # no all-zeros
            h = rng.normal(m_a, sigma, size=(n, L - 1, s))
            dots = np.matmul(h.reshape(-1, s), bits01.T,
                             out=_shaped(dots_ws, np.float64, n * (L - 1), q))
            su = gather_sum(dots, r_idx)
            np.subtract(s * (L - 1) * m_a, _lse(su), out=out)
            if n_j > 1:
                sp = gather_sum(dots, rp_idx)
                out += np.logaddexp(0.0, _lse(-sp))
        return one_batch

    return _mc_mean(sampler, samples, seed, entries=(L - 1) * q)


def exit_ese(m_a: float, eb_n0: float, K: int, L: int, samples: int = 100_000,
             seed=0) -> tuple[float, float]:
    """Signal-estimator transfer point; ``eb_n0`` is the linear ratio."""
    if not 0 <= m_a < math.inf:   # also refuses NaN
        raise ValueError("m_a must be finite and >= 0")
    if K < 1:
        raise ValueError("K must be >= 1")
    if not 0 < eb_n0 < math.inf:
        raise ValueError("eb_n0 must be finite and > 0 (linear ratio)")
    sigma = np.sqrt(m_a / 2.0)

    def one_batch(rng: np.random.Generator, out: np.ndarray) -> None:
        t = rng.normal(m_a / 2.0, sigma, size=(len(out), K - 1))   # 1 - tanh^2 in place:
        np.subtract(1.0, np.square(np.tanh(t, out=t), out=t), out=t)
        np.divide(4.0, 2.0 * t.sum(axis=1) + L / eb_n0, out=out)

    return _mc_mean(lambda step: one_batch, samples, seed, entries=K - 1)


def _curve(point_fn, grid, samples, seed) -> ExitCurve:
    grid = np.asarray(grid, dtype=np.float64)
    m_e = np.empty(grid.size)
    se = np.empty(grid.size)
    for i, g in enumerate(grid):
        m_e[i], se[i] = point_fn(float(g), _seed_tuple(seed, i))
    return ExitCurve(m_a=grid, m_e=m_e, std_err=se, samples=samples)


def ffdes_exact_curve(s: int, L: int, grid=DEFAULT_GRID, samples: int = 100_000,
                      seed=0) -> ExitCurve:
    return _curve(lambda g, sd: exit_ffdes_exact(g, s, L, samples, sd),
                  grid, samples, seed)


def ffdes_approx_curve(s: int, L: int, grid=DEFAULT_GRID, samples: int = 100_000,
                       seed=0) -> ExitCurve:
    return _curve(lambda g, sd: exit_ffdes_approx(g, s, L, samples, sd),
                  grid, samples, seed)


def ese_curve(K: int, L: int, eb_n0: float, grid=DEFAULT_GRID,
              samples: int = 100_000, seed=0) -> ExitCurve:
    return _curve(lambda g, sd: exit_ese(g, eb_n0, K, L, samples, sd),
                  grid, samples, seed)


@dataclass(frozen=True)
class TunnelResult:
    converges: bool
    stuck_at: float | None


def tunnel_check(s: int, L: int, K: int, eb_n0: float, grid=None,
                 samples: int = 20_000, seed=0) -> TunnelResult:
    """Iterate the two-curve recursion between the signal estimator and
    the despreader from zero prior information.

    Reports convergence once the trajectory exceeds the top of the grid,
    otherwise the fixed point it stalls at, or where it is after
    ``TUNNEL_ROUNDS`` rounds.  ``eb_n0`` is linear.
    """
    if grid is None:
        grid = tuple(DEFAULT_GRID) + (50.0,)
    grid = np.asarray(grid, dtype=np.float64)
    m_stop = float(grid[-1])
    ese = ese_curve(K, L, eb_n0, grid, samples, _seed_tuple(seed, 101))
    des = ffdes_approx_curve(s, L, grid, samples, _seed_tuple(seed, 202))
    x = 0.0
    for _ in range(TUNNEL_ROUNDS):
        y = float(np.interp(x, grid, ese.m_e))
        if y > m_stop:
            return TunnelResult(True, None)
        x_next = float(np.interp(y, grid, des.m_e))
        if x_next > m_stop:
            return TunnelResult(True, None)
        if x_next <= x + 1e-9:
            return TunnelResult(False, x_next)
        x = x_next
    return TunnelResult(False, x)


def write_curves_csv(path, **curves: ExitCurve) -> None:
    """One row per grid point: ``m_a``, then ``m_e_<name>`` and ``se_<name>``
    for each keyword-named curve, in argument order, on their shared grid."""
    grids = [c.m_a for c in curves.values()]
    if not grids or not all(np.array_equal(grids[0], g) for g in grids):
        raise ValueError("curves must share one grid")
    columns = [grids[0]] + [a for c in curves.values() for a in (c.m_e, c.std_err)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m_a"] + [f"{col}_{name}" for name in curves for col in ("m_e", "se")])
        w.writerows([repr(float(v)) for v in row] for row in zip(*columns))
