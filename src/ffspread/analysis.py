"""Transfer (EXIT) functions of the despreader and the signal estimator
under the consistent-Gaussian prior model, plus the two-curve
convergence-tunnel check.

Priors follow the standard model: for a chip c, the product c * L_a is
drawn from N(m_a, 2 m_a).  Curves map the prior mean m_a to the
extrinsic mean m_e.

Three estimators:

* ``exit_ffdes_exact`` runs the production despreading kernel on sampled
  priors (fresh random mapper, nonzero spreading vector, and chips per
  sample) and averages c * L_e over one randomly chosen output chip.
* ``exit_ffdes_approx`` averages the closed sampling form

      s(L-1) m_a - log sum_j exp(sum_i r_{j,i} . h_i)
                 + log(1 + sum_j exp(-sum_i r'_{j,i} . h_i))

  with r uniform over length-s binary vectors excluding all-ones,
  r' excluding all-zeros, and h_i i.i.d. N(m_a, 2 m_a) entries.
* ``exit_ese`` averages 4 / (2 sum_i (1 - tanh^2(h_i)) + L/(Eb/N0))
  with h_i i.i.d. N(m_a/2, m_a/2), i = 1..K-1.

Sampling is chunked (4096 samples per chunk, one child seed per chunk)
so results are deterministic for a fixed (seed, samples) pair no matter
how chunks are scheduled.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .decoder import _CodeKernel
from .gf import _sign_basis, build_field

CHUNK = 1 << 12
# largest b*L*Q of one per-sample despreading kernel: its (b, Q, L) float64
# arrays stay at 8 MiB each
KERNEL_ENTRIES = 1 << 20
DEFAULT_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0, 30.0, 40.0)


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


def _mc_mean(sample_fn, samples: int, seed) -> tuple[float, float]:
    """Chunked Monte-Carlo mean and standard error of a per-sample statistic."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n_done, acc, acc2 = 0, 0.0, 0.0
    chunk_idx = 0
    while n_done < samples:
        b = min(CHUNK, samples - n_done)
        rng = np.random.default_rng(_seed_tuple(seed, chunk_idx))
        vals = sample_fn(rng, b)
        acc += float(vals.sum())
        acc2 += float((vals * vals).sum())
        n_done += b
        chunk_idx += 1
    mean = acc / samples
    if samples > 1:
        var = max(acc2 - samples * mean * mean, 0.0) / (samples - 1)
        se = float(np.sqrt(var / samples))
    else:
        se = float("nan")
    return mean, se


def exit_ffdes_exact(m_a: float, s: int, L: int, samples: int = 100_000,
                     seed=0) -> tuple[float, float]:
    """Despreader transfer point by sampling the production kernel.

    Each sample draws its own uniformly random mapper, nonzero spreading
    vector and symbol, builds consistent-Gaussian chip priors, despreads
    one symbol group, and reads c * L_e at one random output chip.
    Kernels run in sub-batches of a chunk's draws, which bounds memory.
    """
    if m_a < 0:
        raise ValueError("m_a must be >= 0")
    field = build_field(s)
    q = field.q
    basis = _sign_basis(s)
    sigma = np.sqrt(2.0 * m_a)
    step = max(1, KERNEL_ENTRIES // (L * q))

    def one_chunk(rng: np.random.Generator, b: int) -> np.ndarray:
        inverse = np.argsort(rng.permuted(np.tile(np.arange(q), (b, 1)), axis=1), axis=1)
        sv = rng.integers(1, q, size=(b, L))
        beta = rng.integers(0, q, size=b)
        gamma = field.mul_table[beta[:, None], sv].astype(np.int64)
        h = rng.normal(m_a, sigma, size=(b, L, s))
        li = rng.integers(0, L, size=b)
        ni = rng.integers(0, s, size=b)
        vals = np.empty(b)
        for lo in range(0, b, step):
            part = slice(lo, lo + step)
            signs = basis[inverse[part]]                             # (p, Q, s)
            rows = np.arange(signs.shape[0])
            chips = signs[rows[:, None], gamma[part]].astype(np.float64)  # (p, L, s)
            x = np.ascontiguousarray(np.swapaxes(chips * h[part], 1, 2))  # (p, s, L)
            ext = _CodeKernel(field, signs, sv[part]).despread(x)
            vals[part] = chips[rows, li[part], ni[part]] * ext[rows, ni[part], li[part]]
        return vals

    return _mc_mean(one_chunk, samples, seed)


def exit_ffdes_approx(m_a: float, s: int, L: int, samples: int = 100_000,
                      seed=0) -> tuple[float, float]:
    """Upper-bound approximation of the despreader transfer point."""
    if m_a < 0:
        raise ValueError("m_a must be >= 0")
    q = 1 << s
    n_j = 1 << (s - 1)
    sigma = np.sqrt(2.0 * m_a)
    bits01 = ((_sign_basis(s) + 1) // 2).astype(np.float64)      # (Q, s) 0/1 rows

    def one_chunk(rng: np.random.Generator, b: int) -> np.ndarray:
        r_idx = rng.integers(0, q - 1, size=(b, n_j, L - 1))      # excludes all-ones
        rp_idx = rng.integers(1, q, size=(b, n_j - 1, L - 1))     # excludes all-zeros
        h = rng.normal(m_a, sigma, size=(b, L - 1, s))
        dots = h @ bits01.T                                       # (b, L-1, Q)
        dots_t = np.swapaxes(dots, 1, 2)                          # (b, Q, L-1)
        su = np.take_along_axis(dots_t, r_idx, axis=1).sum(axis=2)    # (b, n_j)
        term2 = logsumexp(su, axis=1)
        if n_j > 1:
            sp = np.take_along_axis(dots_t, rp_idx, axis=1).sum(axis=2)
            term3 = np.logaddexp(0.0, logsumexp(-sp, axis=1))
        else:
            term3 = np.zeros(b)
        return s * (L - 1) * m_a - term2 + term3

    return _mc_mean(one_chunk, samples, seed)


def exit_ese(m_a: float, eb_n0: float, K: int, L: int, samples: int = 100_000,
             seed=0) -> tuple[float, float]:
    """Signal-estimator transfer point; ``eb_n0`` is the linear ratio."""
    if m_a < 0:
        raise ValueError("m_a must be >= 0")
    if K < 1:
        raise ValueError("K must be >= 1")
    if eb_n0 <= 0:
        raise ValueError("eb_n0 must be > 0 (linear ratio)")
    sigma = np.sqrt(m_a / 2.0)

    def one_chunk(rng: np.random.Generator, b: int) -> np.ndarray:
        h = rng.normal(m_a / 2.0, sigma, size=(b, K - 1))
        t = np.tanh(h)
        return 4.0 / (2.0 * (1.0 - t * t).sum(axis=1) + L / eb_n0)

    return _mc_mean(one_chunk, samples, seed)


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
                 samples: int = 20_000, seed=0, m_stop: float | None = None,
                 max_rounds: int = 2000) -> TunnelResult:
    """Iterate the two-curve recursion between the signal estimator and
    the despreader from zero prior information.

    Reports convergence once the trajectory exceeds ``m_stop`` (the top
    of the grid by default), otherwise the fixed point it stalls at.
    ``eb_n0`` is linear.
    """
    if grid is None:
        grid = tuple(DEFAULT_GRID) + (50.0,)
    grid = np.asarray(grid, dtype=np.float64)
    if m_stop is None:
        m_stop = float(grid[-1])
    ese = ese_curve(K, L, eb_n0, grid, samples, _seed_tuple(seed, 101))
    des = ffdes_approx_curve(s, L, grid, samples, _seed_tuple(seed, 202))
    x = 0.0
    for _ in range(max_rounds):
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


def write_exit_csv(path, exact: ExitCurve, approx: ExitCurve) -> None:
    """Columns: m_a, m_e_exact, se_exact, m_e_approx, se_approx."""
    if not np.array_equal(exact.m_a, approx.m_a):
        raise ValueError("exact and approximate curves must share the grid")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m_a", "m_e_exact", "se_exact", "m_e_approx", "se_approx"])
        for i in range(exact.m_a.size):
            w.writerow([repr(float(exact.m_a[i])), repr(float(exact.m_e[i])),
                        repr(float(exact.std_err[i])), repr(float(approx.m_e[i])),
                        repr(float(approx.std_err[i]))])


def write_ese_csv(path, curve: ExitCurve) -> None:
    """Columns: m_a, m_e, se."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m_a", "m_e", "se"])
        for i in range(curve.m_a.size):
            w.writerow([repr(float(curve.m_a[i])), repr(float(curve.m_e[i])),
                        repr(float(curve.std_err[i]))])
