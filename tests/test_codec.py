import numpy as np
import pytest

from ffspread.codec import (Interleaver, SpreadingVector, UserCodeSpec,
                            chip_slots, encode_user, identity_interleaver, make_interleaver,
                            ones_spreading, permute, random_spreading,
                            spread_block)
from ffspread.gf import build_field, natural_mapper, random_mapper


@pytest.fixture(scope="module")
def gf4():
    return build_field(2)


class TestSpreadBlock:
    def test_zero_symbol(self, gf4):
        sv = random_spreading(gf4, 5, 1)
        assert np.all(spread_block(0, sv) == 0)

    def test_all_ones_repeats(self, gf4):
        sv = ones_spreading(gf4, 4)
        assert spread_block(3, sv).tolist() == [3, 3, 3, 3]

    def test_gf4_example(self, gf4):
        sv = SpreadingVector(gf4, np.array([1, 2]))
        assert spread_block(2, sv).tolist() == [2, 3]

    def test_zero_element_rejected(self, gf4):
        with pytest.raises(ValueError, match="nonzero"):
            SpreadingVector(gf4, np.array([1, 0]))


class TestInterleaver:
    def test_length_one_identity(self):
        assert make_interleaver(1, 0).perm.tolist() == [0]

    def test_deterministic(self):
        assert np.array_equal(make_interleaver(64, 5).perm,
                              make_interleaver(64, 5).perm)

    def test_bijection_100_seeds(self):
        for seed in range(100):
            perm = make_interleaver(37, seed).perm
            assert sorted(perm.tolist()) == list(range(37))

    def test_permute_identity(self):
        il = identity_interleaver(8)
        v = np.arange(8.0)
        assert np.array_equal(permute(v, il), v)

    def test_forward_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        il = make_interleaver(50, 9)
        v = rng.normal(size=50)
        assert np.array_equal(permute(permute(v, il, "forward"), il, "inverse"), v)
        assert np.array_equal(permute(permute(v, il, "inverse"), il, "forward"), v)

    def test_multiset_preserved(self):
        il = make_interleaver(30, 2)
        v = np.arange(30.0)
        assert sorted(permute(v, il).tolist()) == v.tolist()

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            permute(np.zeros(5), make_interleaver(6, 0))

    def test_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            permute(np.zeros(6), make_interleaver(6, 0), "sideways")

    @pytest.mark.parametrize("s,L,n", [(1, 1, 5), (2, 3, 4), (3, 2, 1)])
    def test_chip_slots_compose_group_columns(self, s, L, n):
        spec = UserCodeSpec(mapper=random_mapper(s, 1), sv=ones_spreading(build_field(s), L),
                            interleaver=make_interleaver(s * L * n, (s, L, n)), n_symbols=n)
        slots = chip_slots(spec)
        chips = np.arange(s * L * n, dtype=np.float64)          # chip order
        received = permute(chips, spec.interleaver, "forward")
        cols = np.empty_like(chips)
        cols[slots] = received                                 # deinterleave
        assert np.array_equal(cols.reshape(L * s, n), chips.reshape(n, L * s).T)
        assert np.array_equal(cols[slots], received)           # interleave back


class TestEncodeUser:
    def test_s1_repetition(self):
        f = build_field(1)
        spec = UserCodeSpec(mapper=natural_mapper(1), sv=ones_spreading(f, 2),
                            interleaver=identity_interleaver(4), n_symbols=2)
        chips = encode_user(np.array([+1, -1]), spec)
        assert chips.tolist() == [+1, +1, -1, -1]

    def test_s2_worked_example(self, gf4):
        spec = UserCodeSpec(mapper=natural_mapper(2),
                            sv=SpreadingVector(gf4, np.array([1, 2])),
                            interleaver=identity_interleaver(4), n_symbols=1)
        chips = encode_user(np.array([+1, -1]), spec)
        assert chips.tolist() == [+1, -1, +1, +1]

    def test_rate_one_identity(self, gf4):
        rng = np.random.default_rng(0)
        spec = UserCodeSpec(mapper=natural_mapper(2),
                            sv=ones_spreading(gf4, 1),
                            interleaver=identity_interleaver(12), n_symbols=6)
        info = rng.integers(0, 2, 12) * 2 - 1
        assert np.array_equal(encode_user(info.astype(float), spec), info)

    def test_code_rate_is_L(self, gf4):
        rng = np.random.default_rng(1)
        for L in (1, 2, 5):
            spec = UserCodeSpec(mapper=random_mapper(2, 4),
                                sv=random_spreading(gf4, L, 5),
                                interleaver=make_interleaver(2 * 3 * L, 6),
                                n_symbols=3)
            info = rng.integers(0, 2, 6) * 2 - 1
            assert encode_user(info, spec).size == info.size * L

    def test_s1_reduces_to_repetition_plus_interleaving(self):
        f = build_field(1)
        rng = np.random.default_rng(2)
        il = make_interleaver(3 * 8, 7)
        spec = UserCodeSpec(mapper=natural_mapper(1), sv=ones_spreading(f, 3),
                            interleaver=il, n_symbols=8)
        info = rng.integers(0, 2, 8) * 2 - 1
        expected = permute(np.repeat(info, 3).astype(float), il, "forward")
        assert np.array_equal(encode_user(info, spec), expected)

    def test_injective_in_info(self, gf4):
        spec = UserCodeSpec(mapper=random_mapper(2, 8),
                            sv=random_spreading(gf4, 2, 9),
                            interleaver=make_interleaver(8, 10), n_symbols=2)
        seen = {}
        for bits in range(16):
            info = np.array([1 if (bits >> i) & 1 else -1 for i in range(4)])
            key = tuple(encode_user(info, spec).tolist())
            assert key not in seen
            seen[key] = bits

    def test_length_mismatch(self, gf4):
        spec = UserCodeSpec(mapper=natural_mapper(2), sv=ones_spreading(gf4, 2),
                            interleaver=identity_interleaver(8), n_symbols=2)
        with pytest.raises(ValueError, match="info length"):
            encode_user(np.ones(3), spec)

    def test_interleaver_length_validated(self, gf4):
        with pytest.raises(ValueError, match="interleaver length"):
            UserCodeSpec(mapper=natural_mapper(2), sv=ones_spreading(gf4, 2),
                         interleaver=identity_interleaver(9), n_symbols=2)

    def test_describe_round_trip_fields(self, gf4):
        spec = UserCodeSpec(mapper=random_mapper(2, 123),
                            sv=SpreadingVector(gf4, np.array([1, 3])),
                            interleaver=make_interleaver(4, 55), n_symbols=1)
        d = spec.describe()
        assert d["mapper"] == 123
        assert d["sv"] == [1, 3]
        assert d["interleaver_seed"] == 55
        nat = UserCodeSpec(mapper=natural_mapper(2),
                           sv=ones_spreading(gf4, 2),
                           interleaver=identity_interleaver(4), n_symbols=1)
        assert nat.describe()["mapper"] == "natural"
