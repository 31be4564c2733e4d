"""Transmitter chain: joint bit-to-symbol mapping, spreading by field
multiplication, demapping to chips, and chip-level interleaving.

Each user's code has rate 1/L: an s*N info vector produces an s*N*L chip
vector.  Chip order before interleaving is (symbol j, spreading index i,
bit m), i.e. chip (j*L + i)*s + m.  The decoder's group-column order puts
that chip at slot (i*s + m)*N + j of an (L*s, N) array; see ``chip_slots``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import BitMapper, FieldSpec


@dataclass(frozen=True)
class SpreadingVector:
    """Length-L vector of nonzero field elements."""

    field: FieldSpec
    elements: np.ndarray

    def __post_init__(self):
        elems = np.asarray(self.elements, dtype=np.int64)
        if elems.ndim != 1 or elems.size < 1:
            raise ValueError("spreading vector must be a nonempty 1-D element array")
        if np.any(elems <= 0) or np.any(elems >= self.field.q):
            raise ValueError("spreading elements must be nonzero field elements")
        object.__setattr__(self, "elements", elems)
        elems.setflags(write=False)

    @property
    def length(self) -> int:
        return int(self.elements.size)


def random_spreading(field: FieldSpec, length: int, seed) -> SpreadingVector:
    """Uniformly random nonzero spreading elements, deterministic in seed."""
    rng = np.random.default_rng(seed)
    return SpreadingVector(field, rng.integers(1, field.q, size=length))


def ones_spreading(field: FieldSpec, length: int) -> SpreadingVector:
    """All-ones spreading: the repetition special case."""
    return SpreadingVector(field, np.ones(length, dtype=np.int64))


@dataclass(frozen=True)
class Interleaver:
    """Permutation of chip positions: channel position t carries chip ``perm[t]``."""

    perm: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        perm, n = self.perm, self.perm.size
        if not (perm.ndim == 1 and np.issubdtype(perm.dtype, np.signedinteger) and (n == 0 or (
                0 <= perm.min() and perm.max() < n and np.bincount(perm).max() == 1))):
            raise ValueError("interleaver perm must be a 1-D integer permutation of range(n)")
        perm.setflags(write=False)

    @property
    def length(self) -> int:
        return int(self.perm.size)


def make_interleaver(length: int, seed) -> Interleaver:
    """Uniformly random permutation via a seeded shuffle."""
    if length < 1:
        raise ValueError("interleaver length must be >= 1")
    perm = np.random.default_rng(seed).permutation(length).astype(np.int64)
    return Interleaver(perm=perm, seed=seed)


def permute(values: np.ndarray, interleaver: Interleaver) -> np.ndarray:
    """Interleave the last axis: output position t takes input position ``perm[t]``."""
    values = np.asarray(values)
    if values.shape[-1] != interleaver.length:
        raise ValueError(
            f"vector length {values.shape[-1]} does not match interleaver length {interleaver.length}"
        )
    return values[..., interleaver.perm]


@dataclass(frozen=True)
class UserCodeSpec:
    """Everything fixed about one user's code: mapper, spreading, interleaver."""

    mapper: BitMapper
    sv: SpreadingVector
    interleaver: Interleaver
    n_symbols: int

    def __post_init__(self):
        if self.mapper.s != self.sv.field.s:
            raise ValueError("mapper degree and field degree disagree")
        expected = self.mapper.s * self.n_symbols * self.sv.length
        if self.interleaver.length != expected:
            raise ValueError(
                f"interleaver length {self.interleaver.length} != s*N*L = {expected}"
            )

    @property
    def s(self) -> int:
        return self.mapper.s

    @property
    def L(self) -> int:
        return self.sv.length

    @property
    def chip_count(self) -> int:
        return self.s * self.n_symbols * self.L

    def describe(self) -> dict:
        """Serializable summary: mapper seed or 'natural', sv elements, interleaver seed."""
        mapper_id = "natural" if self.mapper.seed is None else self.mapper.seed
        return {
            "mapper": mapper_id,
            "sv": self.sv.elements.tolist(),
            "interleaver_seed": self.interleaver.seed,
            "n_symbols": self.n_symbols,
        }


def chip_slots(spec: UserCodeSpec) -> np.ndarray:
    """Per channel position, the group-column slot of the chip sent there."""
    perm = spec.interleaver.perm
    rows = spec.s * spec.L
    return (perm % rows) * spec.n_symbols + perm // rows


def spread_block(beta: int, sv: SpreadingVector) -> np.ndarray:
    """Component-wise field products beta * s_l."""
    return sv.field.mul_table[beta, sv.elements].astype(np.int64)


def bits_to_symbols(info: np.ndarray, mapper: BitMapper) -> np.ndarray:
    """Map an s*N vector over {+1,-1} to N field elements, s bits per symbol."""
    s = mapper.s
    info = np.asarray(info)
    if info.size % s != 0:
        raise ValueError(f"info length {info.size} is not a multiple of s={s}")
    groups = (info.reshape(-1, s) > 0).astype(np.int64)
    shifts = np.arange(s - 1, -1, -1)
    idx = (groups << shifts[None, :]).sum(axis=1)
    return mapper.forward[idx]


def encode_user(info: np.ndarray, spec: UserCodeSpec) -> np.ndarray:
    """Encode an s*N info vector into the interleaved s*N*L chip vector.

    The output is the unit-amplitude chip stream; the symbol amplitude
    sqrt(Eb/L) is applied by the channel.
    """
    info = np.asarray(info)
    s, L, n = spec.s, spec.L, spec.n_symbols
    if info.shape != (s * n,):
        raise ValueError(f"info length {info.shape} != s*N = {s * n}")
    beta = bits_to_symbols(info, spec.mapper)                    # (N,)
    gamma = spec.sv.field.mul_table[beta[:, None], spec.sv.elements[None, :]]  # (N, L)
    chips = spec.mapper.signs[gamma]                             # (N, L, s)
    return permute(chips.reshape(-1).astype(np.float64), spec.interleaver)
