import tracemalloc

import numpy as np
import pytest

from ffspread.gf import (DEFAULT_PRIMITIVE_POLY, build_field, demap_bit, map_bits,
                         natural_mapper, random_mapper)


def poly_mul_mod(a, b, poly, s):
    """Independent polynomial multiplication modulo poly (oracle)."""
    prod = 0
    for bit in range(b.bit_length()):
        if (b >> bit) & 1:
            prod ^= a << bit
    for bit in range(prod.bit_length() - 1, s - 1, -1):
        if (prod >> bit) & 1:
            prod ^= poly << (bit - s)
    return prod


class TestBuildField:
    def test_gf2_multiplication_is_and(self):
        f = build_field(1)
        for a in (0, 1):
            for b in (0, 1):
                assert f.mul_table[a, b] == (a & b)

    def test_gf4_exp_table(self):
        # oracle: repeated polynomial multiplication by x modulo x^2+x+1
        f = build_field(2, poly=0b111)
        expected = [1]
        for _ in range(2):
            expected.append(poly_mul_mod(expected[-1], 2, 0b111, 2))
        assert f.exp_table.tolist() == expected == [1, 2, 3]

    def test_reducible_poly_rejected(self):
        with pytest.raises(ValueError, match="not primitive"):
            build_field(2, poly=0b101)  # x^2 + 1 = (x+1)^2

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            build_field(3, poly=0b111)

    def test_degree_out_of_range(self):
        for s in (0, 13):
            with pytest.raises(ValueError):
                build_field(s)

    def test_largest_field_build_memory(self):
        # int16 index arithmetic: (Q-1)^2 int64 temporaries peaked at 256 MiB
        # for the 32 MiB s=12 product table
        tracemalloc.start()
        try:
            build_field(12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 << 20

    @pytest.mark.parametrize("s", [5, 8, 12])
    def test_mul_table_matches_poly_oracle(self, s):
        f = build_field(s)
        rng = np.random.default_rng(s)
        for a, b in rng.integers(0, f.q, size=(300, 2)).tolist():
            assert f.mul_table[a, b] == poly_mul_mod(a, b, f.poly, s)

    def test_default_polys_are_primitive(self):
        for s in DEFAULT_PRIMITIVE_POLY:
            f = build_field(s)
            nonzero = f.exp_table
            assert len(set(nonzero.tolist())) == f.q - 1
            assert 0 not in nonzero

    def test_exp_matches_poly_oracle(self):
        for s in (3, 4, 5):
            f = build_field(s)
            val = 1
            for i in range(f.q - 1):
                assert f.exp_table[i] == val
                val = poly_mul_mod(val, 2, f.poly, s)


class TestArithmetic:
    def test_mul_identity_and_zero(self):
        f = build_field(3)
        x = np.arange(f.q)
        assert np.array_equal(f.mul_table[x, 1], x)
        assert not f.mul_table[x, 0].any()

    def test_gf4_mul_example(self):
        f = build_field(2)
        assert f.mul_table[2, 2] == 3  # alpha * alpha = alpha + 1

    def test_inv_examples(self):
        f = build_field(2)
        assert f.inv_table[1] == 1
        # oracle: exhaustive search for the inverse
        want = next(b for b in range(1, f.q) if f.mul_table[2, b] == 1)
        assert f.inv_table[2] == want == 3

    def test_zero_has_no_inverse(self):
        f = build_field(3)
        assert not (f.mul_table[0] == 1).any()

    def test_inverses_everywhere(self):
        for s in (1, 2, 3, 4, 6):
            f = build_field(s)
            a = np.arange(1, f.q)
            assert np.all(f.mul_table[a, f.inv_table[a]] == 1)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_field_axioms_exhaustive(self, s):
        f = build_field(s)
        lam = np.arange(f.q)
        a = lam[:, None, None]
        b = lam[None, :, None]
        c = lam[None, None, :]
        mt = f.mul_table
        assert np.array_equal(mt, mt.T), "commutativity"
        assert np.array_equal(mt[mt[a, b], c], mt[a, mt[b, c]]), "associativity"
        assert np.array_equal(mt[a, b ^ c], mt[a, b] ^ mt[a, c]), "distributivity"
        # unique multiplicative inverses on nonzero elements
        assert ((mt[1:, 1:] == 1).sum(axis=1) == 1).all()

    def test_exp_log_round_trip(self):
        for s in (2, 5, 8):
            f = build_field(s)
            x = np.arange(1, f.q)
            assert np.array_equal(f.exp_table[f.log_table[x]], x)


class TestBitMapper:
    def test_natural_s1(self):
        m = natural_mapper(1)
        assert map_bits([+1], m) == 1
        assert map_bits([-1], m) == 0

    def test_natural_s2_msb_first(self):
        m = natural_mapper(2)
        assert map_bits([+1, -1], m) == 2

    def test_demap_bit_examples(self):
        m = natural_mapper(2)
        assert demap_bit(3, 1, m) == +1
        assert demap_bit(3, 2, m) == +1
        assert demap_bit(0, 1, m) == -1
        assert demap_bit(0, 2, m) == -1
        assert demap_bit(2, 2, m) == -1

    def test_demap_bit_index_range(self):
        m = natural_mapper(2)
        for bad in (0, 3):
            with pytest.raises(ValueError):
                demap_bit(1, bad, m)

    def test_round_trip_random_mappers(self):
        rng = np.random.default_rng(0)
        for seed in range(50):
            s = int(rng.integers(1, 6))
            m = random_mapper(s, seed)
            for lam in range(1 << s):
                assert map_bits(m.signs[lam], m) == lam

    def test_random_mapper_deterministic(self):
        a = random_mapper(3, 42)
        b = random_mapper(3, 42)
        assert np.array_equal(a.forward, b.forward)

    def test_random_mapper_bijection_100_seeds(self):
        for seed in range(100):
            m = random_mapper(3, seed)
            assert sorted(m.forward.tolist()) == list(range(8))
            # demapping the element of chip pattern v gives back pattern v
            assert np.array_equal(m.signs[m.forward], natural_mapper(3).signs)

    def test_random_mapper_uniform_over_seeds(self):
        # each (pattern, element) pair should appear with frequency ~ 1/2^s
        s, n_seeds = 2, 10_000
        q = 1 << s
        counts = np.zeros((q, q), dtype=int)
        for seed in range(n_seeds):
            fw = random_mapper(s, (7, seed)).forward
            counts[np.arange(q), fw] += 1
        p = 1.0 / q
        band = 3.0 * np.sqrt(n_seeds * p * (1 - p))
        assert np.all(np.abs(counts - n_seeds * p) <= band)
