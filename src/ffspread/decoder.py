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
bit LLRs, the hard decision, which the stop rule reads every iteration);
``ffdes_block`` is the public wrapper of ``despread``.  Arrays are
Q-major: each user's chip LLRs are an (L*s, N) array, one column per
symbol group, laid out by ``codec.chip_slots``.
The first two steps are linear: one matmul per user with a dense
(L*2^s, L*s) map read off the field tables.  The EXIT analysis reads its
per-sample mappers through one natural-mapper kernel, in chip-pattern
coordinates (``analysis._pattern_bit_llrs``): ``symbol_llrs`` per sample,
then ``chip_llrs`` on a (2^s, p) array with one sample per column, the
decision read's layout.  Marginalization is one exponential per
max-shifted symbol vector and one matmul with the bit-class indicators;
where a class mass underflows, it falls back to log-sum-exp on the
allocating path only (a frame's despread, in buffers, relies on its clip).
The buffered kernels compute in their buffers' dtype: a frame despreads
s > 1 groups in float32, and everything else (s = 1 frames, the decision
reads, the allocating path, the EXIT analysis) in float64.

A flooding schedule updates all users in parallel each iteration, so
results do not depend on user ordering.  ``decode_frame`` clamps LLRs to
``LLR_MAX`` after every node update; the underlying kernels are
unclamped so analysis code can reuse them bias-free.

Threads.  The schedule makes each iteration two sets of independent
tasks: ESE column blocks, then per-user despreading.  A frame of at
least ``THREAD_MIN_CHIPS`` chips (K * s*N*L) runs each set on a
persistent thread pool, min(K, usable CPUs / ``share_cpus`` processes)
threads wide.  The EXIT analysis runs its Monte-Carlo chunks on the same
pool, by the same rule with chunks for users.  Each task does the serial
arithmetic on what it owns, so results are bit-identical for any thread
count.  Each frame thread despreads in a workspace allocated once per
frame, passed to ``despread`` as its optional buffer arguments, and both
interleaver directions are gathers, through ``chip_slots`` and its
inverse.  The hard decision runs in the same per-user tasks, on the
allocating ``total_bit_llrs``.  OpenBLAS threads would compete
with these for the cores, so before the first threaded frame or EXIT
point every OpenBLAS library loaded into the process is set to one
thread, for the rest of the process; where none is found everything
runs serially.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams
from .codec import SpreadingVector, UserCodeSpec, chip_slots
from .gf import BitMapper, FieldSpec

LLR_MAX = 50.0
# prior <- DAMPING * prior + (1 - DAMPING) * extrinsic; see decode_frame
DAMPING = 0.5
_TINY = np.finfo(np.float64).tiny
# Smallest frame (K * s*N*L chips) decoded on threads.  On a 2-core host
# threaded and serial frames were level at 96k chips, and threads won every
# alternating round at 128k (K = 4, 8; s = 1, 2).
THREAD_MIN_CHIPS = 128_000
# ESE temporaries are (K, _ESE_COLUMNS) blocks, small enough to stay in cache
_ESE_COLUMNS = 8192
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads")


def _lse(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) along the last axis, max-stabilized."""
    m = np.max(x, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)  # all -inf: empty mass
    # exp can overflow only in a row whose max is +inf, whose sum is +inf anyway
    with np.errstate(divide="ignore", over="ignore"):
        return np.squeeze(m, -1) + np.log(np.exp(x - m).sum(axis=-1))


class _CodeKernel:
    """Precomputed tables for one (field, mapper, spreading) triple.

    Array contract.  ``signs`` is (Q, s) and ``sv_elements`` (L,).
    ``symbol_llrs`` maps (.., s, L) chips to (.., Q, L) symbol LLR vectors.
    ``chip_llrs`` marginalizes symbol LLR vectors (.., Q, M) to chip LLRs
    (.., s, M): the max is over axis -2 and the (2s, Q) bit-class masks
    multiply from the left.  ``despread`` maps (.., L*s, N) chip LLR
    columns, row i*s + m holding bit m of position i, to the same shape,
    and ``total_bit_llrs`` maps them to (.., s, N): each is one matmul,
    ``extrinsic_symbol_llrs`` with ``ext_map`` or ``total_llrs`` with
    ``tot_map``, then marginalization.  Both maps are read off the field's
    product and inverse tables on first use.  Arrays are float64, except
    that ``despread`` and ``chip_llrs`` compute in the dtype of their
    optional buffers, float64 or float32 (with ``ext_map32`` and
    ``masks32``, made on first use).
    """

    def __init__(self, field: FieldSpec, signs: np.ndarray, sv_elements: np.ndarray):
        self.field = field
        self.sv = np.asarray(sv_elements)
        self.q = field.q
        self.s = signs.shape[1]
        self.L = len(sv_elements)
        # (Q, s) matrix turning s chip LLRs into the 2^s symbol LLR vector
        self.w = (signs - signs[:1]) * 0.5
        # (2s, Q) bit-class indicators: rows m < s hold the elements whose
        # bit m is +1, rows s + m those whose bit m is -1
        self.plus = signs.T > 0
        self.masks = np.concatenate([self.plus, ~self.plus]).astype(np.float64)

    @functools.cached_property
    def ext_map(self) -> np.ndarray:
        """(L*Q, L*s) map from a group's chip LLRs to its extrinsic symbol LLRs.

        Row (l, lam), column (i, m) holds ``w[lam * inv(s_l) * s_i, m]``;
        the own-position blocks i = l are zero, and so is every row lam = 0.
        """
        mt, own = self.field.mul_table, np.arange(self.L)
        ext = self.w[mt[:, mt[self.field.inv_table[self.sv][:, None], self.sv]]]  # (Q, l, i, s)
        ext[:, own, own] = 0.0
        return np.ascontiguousarray(ext.swapaxes(0, 1)).reshape(self.L * self.q, -1)

    @functools.cached_property
    def ext_map32(self) -> np.ndarray:
        """``ext_map`` in float32, for despreading in float32 buffers."""
        return self.ext_map.astype(np.float32)

    @functools.cached_property
    def masks32(self) -> np.ndarray:
        """``masks`` in float32, for despreading in float32 buffers."""
        return self.masks.astype(np.float32)

    @functools.cached_property
    def tot_map(self) -> np.ndarray:
        """(Q, L*s) map from a group's chip LLRs to its total symbol LLRs:
        row lam, column (i, m) holds ``w[lam * s_i, m]``."""
        return np.ascontiguousarray(self.w[self.field.mul_table[:, self.sv]].reshape(self.q, -1))

    def symbol_llrs(self, chip_llrs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(.., s, L) chip LLRs -> (.., Q, L) a-priori symbol LLR vectors."""
        return np.matmul(self.w, chip_llrs, out=out)

    def extrinsic_symbol_llrs(self, chip_llrs: np.ndarray,
                              out: np.ndarray | None = None) -> np.ndarray:
        """(.., L*s, N) chip LLRs -> (.., L*Q, N) leave-one-out symbol LLRs of
        every position, relabeled by the spreading elements, in float32 for
        float32 chip LLRs and float64 otherwise."""
        ext_map = self.ext_map32 if chip_llrs.dtype == np.float32 else self.ext_map
        return np.matmul(ext_map, chip_llrs, out=out)

    def total_llrs(self, chip_llrs: np.ndarray) -> np.ndarray:
        """(.., L*s, N) chip LLRs -> (.., Q, N) all-positions symbol LLRs."""
        return self.tot_map @ chip_llrs

    def chip_llrs(self, sym_llrs: np.ndarray, out: np.ndarray | None = None,
                  peak: np.ndarray | None = None,
                  mass: np.ndarray | None = None) -> np.ndarray:
        """(.., Q, M) symbol LLR vectors -> (.., s, M) chip LLRs by marginalization.

        Each chip LLR is log(mass of the elements whose bit is +1) minus
        log(mass of those whose bit is -1).  One ``exp`` of the max-shifted
        vectors feeds one matmul with the 0/1 bit-class indicators, giving
        both masses of all s bits.  A vector where some class mass is not a
        positive normal float (a class underflowed, or the input is not
        finite) is recomputed by masked log-sum-exp, so extreme and +/-inf
        inputs give what log-sum-exp gives.  At s = 1 each class is one
        element and the result is their exact difference.

        With the buffers ``out`` (.., s, M) and, for s > 1, ``peak``
        (.., 1, M) and ``mass`` (.., 2s, M), nothing is allocated: the shift
        and ``exp`` run in the finite ``sym_llrs``, which is overwritten, and
        the result goes to ``out``, with no recompute.  ``sym_llrs``,
        ``peak`` and ``mass`` share the dtype computed in; ``out`` gets the
        difference of the class logs cast to its own.  The class holding a
        vector's max has mass >= 1, so a class mass below the normal floats
        gives a chip LLR beyond +/-700 in float64 or +/-87 in float32, or
        +/-inf where it is 0, which ``decode_frame``'s clip turns into
        log-sum-exp's clipped value.
        """
        s = self.s
        if s == 1:
            return np.matmul(self.masks[:1] - self.masks[1:], sym_llrs, out=out)
        # log(0) of an underflowed class; non-finite input (allocating path)
        with np.errstate(divide="ignore", invalid="ignore"):
            shift = np.max(sym_llrs, axis=-2, keepdims=True, out=peak)
            e = np.subtract(sym_llrs, shift, out=None if out is None else sym_llrs)
            np.exp(e, out=e)
            masks = self.masks32 if e.dtype == np.float32 else self.masks
            mass = np.matmul(masks, e, out=mass)                      # (.., 2s, M)
            del e
            bad = None
            if out is None and not mass.min(initial=np.inf) >= _TINY:
                bad = ~(mass >= _TINY).all(axis=-2)
            np.log(mass, out=mass)
            out = np.subtract(mass[..., :s, :], mass[..., s:, :], out=out)
        if bad is not None:  # masked log-sum-exp of the selected vectors only
            sel = np.nonzero(bad)
            xr = np.moveaxis(sym_llrs, -2, -1)[sel][:, None, :]       # (r, 1, Q)
            np.moveaxis(out, -2, -1)[sel] = (_lse(np.where(self.plus, xr, -np.inf))
                                             - _lse(np.where(self.plus, -np.inf, xr)))
        return out

    def despread(self, chip_llrs: np.ndarray, ext: np.ndarray | None = None,
                 peak: np.ndarray | None = None, mass: np.ndarray | None = None) -> np.ndarray:
        """Full FF-DES: prior chip LLRs -> extrinsic chip LLRs, same shape.

        With the buffers ``ext`` (L, Q, N) for the matmul and, for s > 1,
        ``peak`` and ``mass`` (see ``chip_llrs``), the finite (L*s, N) input
        is overwritten with the result and nothing is allocated.  With
        float32 buffers the input's float32 copy waits for the matmul in
        ``mass``, idle until the class masses.
        """
        shape = chip_llrs.shape
        if ext is None:
            ext = self.extrinsic_symbol_llrs(chip_llrs)
            return self.chip_llrs(ext.reshape(shape[:-2] + (self.L, self.q, shape[-1]))).reshape(shape)
        src = chip_llrs
        if ext.dtype == np.float32:
            src = mass.reshape(-1)[:chip_llrs.size].reshape(shape)
            np.copyto(src, chip_llrs, casting="same_kind")
        self.extrinsic_symbol_llrs(src, out=ext.reshape(-1, shape[-1]))
        self.chip_llrs(ext, chip_llrs.reshape(self.L, self.s, -1), peak, mass)
        return chip_llrs

    def total_bit_llrs(self, chip_llrs: np.ndarray) -> np.ndarray:
        """Hard-decision input: prior chip LLRs -> (.., s, M) posterior bit LLRs."""
        return self.chip_llrs(self.total_llrs(chip_llrs))


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


_processes = 1         # decoding processes sharing the CPUs; see share_cpus
_blas_pinned = None    # whether _pin_blas found an OpenBLAS to pin
_pool = None           # (pid, workers, executor): a forked child builds its own
_pool_lock = threading.Lock()


def share_cpus(processes: int) -> None:
    """Declare this process one of ``processes`` decoding side by side.

    Threaded frames then use the usable CPUs divided by ``processes``, and
    OpenBLAS is set to one thread now (see the module docstring).  A sweep
    runs this in each of its worker processes.
    """
    global _processes
    _processes = max(1, int(processes))
    _pin_blas()


def _pin_blas() -> bool:
    """Set every OpenBLAS library this process maps to one thread, once.

    Returns whether one was found.  ffspread maps only numpy's copy, but
    a caller that imports scipy adds scipy's own, so every copy mapped is
    pinned.  The setting is process-wide and never changed back; it serves
    threaded frames, threaded EXIT sampling and the threaded Monte-Carlo
    slope oracle alike.
    """
    global _blas_pinned
    if _blas_pinned is None:
        try:
            with open("/proc/self/maps") as fh:
                paths = {fields[5].strip() for fields in (line.split(maxsplit=5) for line in fh)
                         if len(fields) == 6 and "openblas" in os.path.basename(fields[5])}
        except OSError:
            paths = set()
        _blas_pinned = False
        for path in sorted(paths):
            try:
                lib = ctypes.CDLL(path)
            except OSError:  # mapped but no longer loadable, e.g. deleted
                continue
            setter = next((getattr(lib, name) for name in _BLAS_SETTERS
                           if hasattr(lib, name)), None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                _blas_pinned = True
    return _blas_pinned


def usable_cpus() -> int:
    """CPUs this process may run on, at least 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _cpu_share() -> int:
    """Usable CPUs per decoding process, at least 1."""
    return max(1, usable_cpus() // _processes)


def _task_threads(tasks: int) -> int:
    """Threads for ``tasks`` independent tasks: min(tasks, usable CPUs per
    process), or 1 unless OpenBLAS could be pinned (see ``_pin_blas``)."""
    threads = min(tasks, _cpu_share())
    return threads if threads > 1 and _pin_blas() else 1


def _frame_threads(K: int, T: int) -> int:
    """Threads that decode a frame of K users and T chips each."""
    return 1 if K * T < THREAD_MIN_CHIPS else _task_threads(K)


def _thread_pool(workers: int) -> ThreadPoolExecutor:
    """This process's pool, with at least ``workers`` threads."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid() or _pool[1] < workers:
            _pool = (os.getpid(), workers,
                     ThreadPoolExecutor(workers, thread_name_prefix="ffspread-decode"))
        return _pool[2]


def _run_split(fn, items, threads: int) -> None:
    """``fn(part)`` for each of ``threads`` round-robin parts of ``items``.

    Part 0 runs in the calling thread, the rest on the pool; returns (or
    raises the first error) once every part has finished.
    """
    parts = [items[j::threads] for j in range(threads)]
    if threads == 1:
        fn(parts[0])
        return
    futures = [_thread_pool(threads - 1).submit(fn, part) for part in parts[1:]]
    try:
        fn(parts[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _ese_all(y: np.ndarray, la_x: np.ndarray, amplitude: float, n0: float,
             threads: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized ESE for all users and positions via leave-one-out sums.

    Evaluates 2a (y - a (sum t - t)) / (a^2 (sum v - v) + n0/2) with
    t = tanh(la_x / 2) and v = 1 - t^2, clipped to +/-LLR_MAX, into
    ``out`` (a new (K, T) array if None).  Columns are independent: blocks
    of ``_ESE_COLUMNS`` run on ``threads`` threads, each with two
    (K, _ESE_COLUMNS) buffers.
    """
    K, T = la_x.shape
    out = np.empty_like(la_x) if out is None else out
    width = min(T, _ESE_COLUMNS)

    def blocks(cols: list[slice]) -> None:
        t_buf, v_buf = np.empty((2, K, width))
        for c in cols:
            t = t_buf[:, :c.stop - c.start]
            v = v_buf[:, :c.stop - c.start]
            np.multiply(la_x[:, c], 0.5, out=t)
            np.tanh(t, out=t)
            np.multiply(t, t, out=v)
            np.subtract(1.0, v, out=v)
            st = t.sum(axis=0)
            sv = v.sum(axis=0)
            num = np.subtract(st, t, out=t)
            num *= amplitude
            np.subtract(y[c], num, out=num)
            num *= 2.0 * amplitude
            den = np.subtract(sv, v, out=v)
            den *= amplitude * amplitude
            den += 0.5 * n0
            res = out[:, c]
            if n0 > 0:
                np.divide(num, den, out=res)
            else:  # noiseless override: the denominator can reach zero
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.divide(num, den, out=res)
                np.nan_to_num(res, copy=False, nan=0.0, posinf=LLR_MAX, neginf=-LLR_MAX)
            np.clip(res, -LLR_MAX, LLR_MAX, out=res)

    _run_split(blocks, [slice(a, min(a + width, T)) for a in range(0, T, width)], threads)
    return out


@dataclass
class DecodeResult:
    decisions: np.ndarray    # (K, s*N) decided info bits, +/-1
    bit_llrs: np.ndarray     # (K, s*N) total posterior bit LLRs
    trace: np.ndarray        # (iterations, K) mean extrinsic chip LLR per user
    chip_priors: np.ndarray  # (K, s*N*L) final deinterleaved a-priori chip LLRs
    iterations: int          # iterations run: the configured number unless stopped


def decode_frame(y: np.ndarray, specs: list[UserCodeSpec], params: ChannelParams,
                 iterations: int = 50, true_chips: np.ndarray | None = None,
                 stop_after: int = 0) -> DecodeResult:
    """Iterative multi-user decoding of one frame.

    All users update in parallel each iteration: ESE at every position,
    per-user deinterleaving, FF-DES per symbol group, then
    re-interleaving of the extrinsic chip LLRs into the next priors.
    Initial priors are zero.  In the last iteration each user's task reads
    the hard decision, before its despread, off the total symbol LLRs of
    its deinterleaved ESE output: the final chip priors.

    ``DAMPING`` blends the new priors with the previous ones
    (prior <- DAMPING * prior + (1 - DAMPING) * extrinsic).  It leaves
    fixed points untouched and keeps the schedule symmetric across
    users, but is essential at high load: with undamped synchronous
    updates the confidence ramp can outrun error correction and lock
    whole frames into a saturated period-2 oscillation.

    ``trace[it, k]`` records the mean extrinsic chip LLR of user k after
    iteration it: mean of x * LLR when ``true_chips`` (the K transmitted
    chip vectors) is given, mean absolute LLR otherwise.  It has one row
    per iteration run, ``DecodeResult.iterations``.

    Stop rule.  With ``stop_after = m > 0`` the frame stops once no user's
    hard decision has changed for m consecutive iterations (the
    hard-decision criterion of Shao, Lin and Fossorier, "Two simple
    stopping criteria for turbo decoding", IEEE Trans. Commun. 1999).
    The rule then reads the decision in every iteration, not just the
    last: each user's task counts how many of its bit signs differ from
    its previous read and keeps the new one, and the main thread applies
    the rule once all users are done, so the stop iteration is the same
    for any thread count.  The first iteration's decisions have no
    predecessor, so a frame runs at least m + 1 iterations.  The read of
    the stop iteration is the returned decision, so a frame that stops
    after j iterations returns the same decisions, bit LLRs, trace and
    chip priors, bit for bit, as ``iterations=j, stop_after=0``.
    ``stop_after=0`` runs every iteration and reads the decision once.

    A frame of at least ``THREAD_MIN_CHIPS`` chips runs on threads and
    sets OpenBLAS to one thread for the rest of the process (see the
    module docstring); the outputs are the same for any thread count.

    Each thread decodes its users in a workspace allocated once per frame:
    the gathered float64 priors (L*s, N), the despread's (L, 2^s, N) matmul
    output ``g``, and for s > 1 the marginalization's max and class masses.
    For s > 1 the last three are float32: the despread computes in float32
    and writes its chip LLRs into the priors, and the clip, interleave,
    trace and damping stay float64.  ``g``'s first 8T bytes then hold the
    float64 interleaved extrinsics, which a float32 ``g`` of T*2^s/s
    entries covers from s = 2 on; the trace's temporary goes into the
    priors, free once the extrinsics are interleaved.  The decision read
    allocates its own (2^s, N) and (s, N) arrays and keeps log-sum-exp for
    underflowed class masses.  Each user's latest read is kept in a
    (K, s, N) float array, which becomes the returned bit LLRs and is the
    only memory the stop rule adds.
    Deinterleaving gathers through ``pos``, the (K, T) int64 inverse of
    ``chip_slots``, and interleaving through ``chip_slots``.
    Both use ``np.take(..., mode="clip")``: the default "raise" buffers the
    whole output and costs as much as a scatter, and a permutation is never
    clipped.  The indices stay int64, which ``take`` uses without a copy.
    """
    y = np.asarray(y, dtype=np.float64)
    K = len(specs)
    if K != params.K:
        raise ValueError(f"got {K} user specs but params.K={params.K}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if stop_after < 0:
        raise ValueError("stop_after must be >= 0")
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
    s, L, N = specs[0].s, specs[0].L, specs[0].n_symbols
    cols = (L * s, N)
    pos = np.empty((K, T), dtype=np.int64)  # pos[k][slot] = channel position
    for k in range(K):
        pos[k][slots[k]] = np.arange(T)
    threads = _frame_threads(K, T)
    la_x = np.zeros((K, T))
    trace = np.zeros((iterations, K))
    if stop_after:
        flips = np.zeros((iterations, K), dtype=np.int64)  # decisions changed per user
    bits = np.zeros((K, s, N))  # each user's last decision read; zero decides +1
    # per thread, see the docstring
    dtype = np.float32 if s > 1 else np.float64
    work = [(np.empty(cols), np.empty(L * 2**s * N, dtype))
            + ((np.empty((L, 1, N), dtype), np.empty((L, 2 * s, N), dtype)) if s > 1 else ())
            for _ in range(threads)]

    def update(users: range) -> None:
        """Decide, despread, re-interleave and damp ``users``; writes their rows only."""
        x, g, *bufs = work[users.start]
        ext = g.reshape(L, 2**s, N)
        extr, tmp = g.view(np.float64)[:T], x.reshape(-1)   # x is free once interleaved
        for k in users:
            np.take(ese[k], pos[k], out=x.reshape(-1), mode="clip")
            if stop_after or it == iterations - 1:
                read = kernels[k].total_bit_llrs(x)
                if stop_after:
                    flips[it, k] = np.count_nonzero((read >= 0) != (bits[k] >= 0))
                bits[k] = read
            le = kernels[k].despread(x, ext, *bufs)
            np.clip(le, -LLR_MAX, LLR_MAX, out=le)
            np.take(le.reshape(-1), slots[k], out=extr, mode="clip")
            if true_chips is not None:
                trace[it, k] = float(np.mean(np.multiply(true_chips[k], extr, out=tmp)))
            else:
                trace[it, k] = float(np.mean(np.abs(extr, out=tmp)))
            extr *= 1.0 - DAMPING
            la_x[k] *= DAMPING
            la_x[k] += extr

    ese = np.empty((K, T))
    for it in range(iterations):
        _ese_all(y, la_x, params.amplitude, params.n0, threads, out=ese)
        _run_split(update, range(K), threads)
        if stop_after and it >= stop_after and not flips[it + 1 - stop_after:it + 1].any():
            break
    del work, pos, la_x  # freed before the (K, T) chip priors
    bit_llrs = bits.transpose(0, 2, 1).reshape(K, -1)
    chip_priors = np.empty((K, T))  # the last iteration's priors, deinterleaved
    for k, spec in enumerate(specs):
        chip_priors[k][spec.interleaver.perm] = ese[k]
    return DecodeResult(decisions=np.where(bit_llrs >= 0, 1, -1).astype(np.int8),
                        bit_llrs=bit_llrs, trace=trace[:it + 1],
                        chip_priors=chip_priors, iterations=it + 1)
