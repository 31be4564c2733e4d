"""GF(2^s) arithmetic tables and the chip-vector <-> field-element mapping.

Field elements are integers 0 .. 2^s - 1 whose binary digits are the
coefficients of a polynomial over GF(2); addition is bitwise XOR and
multiplication is carried out modulo a primitive polynomial of degree s.
Products and inverses are read from ``mul_table`` and ``inv_table``, built
from the exp/log tables of the primitive element alpha (the polynomial ``x``).

A :class:`BitMapper` realizes a bijection between length-s vectors over
{+1, -1} (chips) and field elements.  The "natural" mapper takes chip m
(m = 1 first) as the m-th most significant bit with +1 mapped to bit 1;
a seeded uniformly random bijection is also available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Default primitive polynomials per degree, fixed so results are
# reproducible.  s=1 is GF(2) itself.
DEFAULT_PRIMITIVE_POLY = {
    1: 0b11,               # x + 1
    2: 0b111,              # x^2 + x + 1
    3: 0b1011,             # x^3 + x + 1
    4: 0b10011,            # x^4 + x + 1
    5: 0b100101,           # x^5 + x^2 + 1
    6: 0b1000011,          # x^6 + x + 1
    7: 0b10001001,         # x^7 + x^3 + 1
    8: 0b100011101,        # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,       # x^9 + x^4 + 1
    10: 0b10000001001,     # x^10 + x^3 + 1
    11: 0b100000000101,    # x^11 + x^2 + 1
    12: 0b1000001010011,   # x^12 + x^6 + x^4 + x + 1
}

MAX_DEGREE = 12


class FieldSpec:
    """GF(2^s) as lookup tables: ``exp_table``, ``log_table``, ``mul_table``
    (product of any two elements, 0 absorbing) and ``inv_table`` (inverse of
    each nonzero element; entry 0 is unused).

    Parameters
    ----------
    s : int
        Field degree, 1 <= s <= 12.
    poly : int, optional
        Bitmask of a degree-s primitive polynomial.  Defaults to a
        built-in polynomial for the given degree.

    All tables are built eagerly; instances are immutable after
    construction and safe for shared read access.
    """

    def __init__(self, s: int, poly: int | None = None):
        if not 1 <= s <= MAX_DEGREE:
            raise ValueError(f"field degree s={s} out of range [1, {MAX_DEGREE}]")
        if poly is None:
            poly = DEFAULT_PRIMITIVE_POLY[s]
        if poly.bit_length() != s + 1:
            raise ValueError(
                f"polynomial 0b{poly:b} has degree {poly.bit_length() - 1}, expected {s}"
            )
        self.s = s
        self.q = 1 << s
        self.poly = poly

        # Powers of alpha = x.  For s=1 the only generator of GF(2)* is 1.
        alpha = 2 if s > 1 else 1
        exp = np.zeros(self.q - 1, dtype=np.int64)
        val = 1
        for i in range(self.q - 1):
            exp[i] = val
            val = self._mul_mod(val, alpha)
        if val != 1 or len(set(exp.tolist())) != self.q - 1 or 0 in exp:
            raise ValueError(
                f"polynomial 0b{poly:b} is not primitive of degree {s}: "
                "powers of x do not enumerate all nonzero elements"
            )
        log = np.zeros(self.q, dtype=np.int64)
        log[exp] = np.arange(self.q - 1)
        log[0] = -1  # sentinel, never a valid exponent

        self.exp_table = exp
        self.log_table = log
        self.mul_table = self._build_mul_table()
        inv = np.zeros(self.q, dtype=np.int64)
        inv[exp] = exp[(-(np.arange(self.q - 1))) % (self.q - 1)]
        self.inv_table = inv
        self.mul_table.setflags(write=False)
        self.exp_table.setflags(write=False)
        self.log_table.setflags(write=False)
        self.inv_table.setflags(write=False)

    def _mul_mod(self, a: int, b: int) -> int:
        """Carry-less multiply mod poly, without tables."""
        p = 0
        while b:
            if b & 1:
                p ^= a
            a <<= 1
            if a & self.q:
                a ^= self.poly
            b >>= 1
        return p

    def _build_mul_table(self) -> np.ndarray:
        # int16 log sums stay below 2(Q-1): a doubled exp table needs no modulo
        logs = self.log_table[1:].astype(np.int16)
        table = np.zeros((self.q, self.q), dtype=np.int16)
        table[1:, 1:] = np.tile(self.exp_table.astype(np.int16), 2)[logs[:, None] + logs[None, :]]
        return table

    def __repr__(self):
        return f"FieldSpec(s={self.s}, poly=0b{self.poly:b})"


def build_field(s: int, poly: int | None = None) -> FieldSpec:
    """Build GF(2^s), validating the (optional) primitive polynomial."""
    return FieldSpec(s, poly)


def _sign_basis(s: int) -> np.ndarray:
    """(2^s, s) matrix: row v holds the chips of natural index v, MSB first, as +/-1."""
    v = np.arange(1 << s)
    shifts = np.arange(s - 1, -1, -1)
    return (2 * ((v[:, None] >> shifts[None, :]) & 1) - 1).astype(np.int8)


@dataclass(frozen=True)
class BitMapper:
    """Bijection between length-s chip vectors over {+1,-1} and GF(2^s).

    ``forward[v]`` is the element assigned to the chip pattern with
    natural integer form v (+1 as bit 1, first chip most significant);
    ``signs[lam]`` is the chip vector of element lam, so ``signs[lam, m-1]``
    is its m-th chip.
    """

    s: int
    forward: np.ndarray
    signs: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        q = 1 << self.s
        if sorted(self.forward.tolist()) != list(range(q)):
            raise ValueError("forward table is not a permutation of the field elements")
        self.forward.setflags(write=False)
        self.signs.setflags(write=False)


def _make_mapper(s: int, forward: np.ndarray, seed: int | None = None) -> BitMapper:
    signs = _sign_basis(s)[np.argsort(forward)]
    return BitMapper(s=s, forward=forward, signs=signs, seed=seed)


def natural_mapper(s: int) -> BitMapper:
    """Identity mapping: chip pattern v (MSB-first, +1 as 1) maps to element v."""
    return _make_mapper(s, np.arange(1 << s, dtype=np.int64))


def random_mapper(s: int, seed) -> BitMapper:
    """Uniformly random bijection, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    forward = rng.permutation(1 << s).astype(np.int64)
    return _make_mapper(s, forward, seed=seed)


def map_bits(bits, mapper: BitMapper) -> int:
    """Map a length-s chip vector over {+1,-1} to its field element."""
    bits = np.asarray(bits)
    if bits.shape != (mapper.s,):
        raise ValueError(f"expected {mapper.s} chips, got shape {bits.shape}")
    v = 0
    for b in bits:
        v = (v << 1) | (1 if b > 0 else 0)
    return int(mapper.forward[v])


def demap_bit(lam: int, m: int, mapper: BitMapper) -> int:
    """m-th chip (1-based) of the demapped vector of element lam."""
    if not 1 <= m <= mapper.s:
        raise ValueError(f"bit index m={m} out of range [1, {mapper.s}]")
    return int(mapper.signs[lam, m - 1])
