"""Unit and property tests for the interstage wiring permutations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.networks.permutations import (
    bit_reversal,
    blockwise,
    butterfly,
    identity,
    inverse_shuffle,
    log2_exact,
    perfect_shuffle,
    transpose,
)

SIZES = [2, 4, 8, 16, 32]


class TestLog2Exact:
    @pytest.mark.parametrize("size,expected", [(1, 0), (2, 1), (8, 3), (1024, 10)])
    def test_powers(self, size, expected):
        assert log2_exact(size) == expected

    @pytest.mark.parametrize("size", [0, -4, 3, 6, 12])
    def test_non_powers_rejected(self, size):
        with pytest.raises(ValueError):
            log2_exact(size)


class TestShuffles:
    def test_shuffle_known_values(self):
        # N=8: sigma interleaves halves: 0->0, 1->2, 2->4, 3->6, 4->1 ...
        assert [perfect_shuffle(i, 8) for i in range(8)] == [0, 2, 4, 6, 1, 3, 5, 7]

    def test_unshuffle_known_values(self):
        assert [inverse_shuffle(i, 8) for i in range(8)] == [0, 4, 1, 5, 2, 6, 3, 7]

    @pytest.mark.parametrize("size", SIZES)
    def test_inverse_relationship(self, size):
        for i in range(size):
            assert inverse_shuffle(perfect_shuffle(i, size), size) == i
            assert perfect_shuffle(inverse_shuffle(i, size), size) == i

    @pytest.mark.parametrize("size", SIZES)
    def test_shuffle_is_doubling_mod_n_minus_1(self, size):
        for i in range(1, size - 1):
            assert perfect_shuffle(i, size) == (2 * i) % (size - 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            perfect_shuffle(8, 8)


@pytest.mark.parametrize(
    "wiring",
    [identity, perfect_shuffle, inverse_shuffle, lambda i, size: butterfly(i, size, 1), bit_reversal],
    ids=["identity", "perfect_shuffle", "inverse_shuffle", "butterfly", "bit_reversal"],
)
@pytest.mark.parametrize("i", [-1, 8])
def test_every_wiring_rejects_a_wire_outside_the_range(wiring, i):
    with pytest.raises(ValueError, match=rf"wire {i} outside \[0, 8\)"):
        wiring(i, 8)


class TestButterfly:
    def test_bit0_is_identity(self):
        assert [butterfly(i, 8, 0) for i in range(8)] == list(range(8))

    def test_swaps_bits(self):
        # k=2 on N=8: swap bit 2 and bit 0: 1 (001) <-> 4 (100).
        assert butterfly(1, 8, 2) == 4
        assert butterfly(4, 8, 2) == 1
        assert butterfly(5, 8, 2) == 5  # 101 symmetric

    @pytest.mark.parametrize("size", SIZES)
    def test_involution(self, size):
        n = log2_exact(size)
        for k in range(n):
            for i in range(size):
                assert butterfly(butterfly(i, size, k), size, k) == i

    def test_bad_bit_rejected(self):
        with pytest.raises(ValueError):
            butterfly(0, 8, 3)


class TestBitReversal:
    def test_known_values(self):
        assert [bit_reversal(i, 8) for i in range(8)] == [0, 4, 2, 6, 1, 5, 3, 7]

    @pytest.mark.parametrize("size", SIZES)
    def test_involution(self, size):
        for i in range(size):
            assert bit_reversal(bit_reversal(i, size), size) == i


class TestBlockwise:
    def test_applies_within_blocks(self):
        f = blockwise(perfect_shuffle, 4)
        assert [f(i, 8) for i in range(8)] == [0, 2, 1, 3, 4, 6, 5, 7]

    def test_size_must_be_multiple(self):
        f = blockwise(identity, 4)
        with pytest.raises(ValueError):
            f(0, 6)


class TestTranspose:
    def test_known_values(self):
        f = transpose(2, 3)
        # (r, c) -> c * 2 + r
        assert [f(i, 6) for i in range(6)] == [0, 2, 4, 1, 3, 5]

    def test_round_trip(self):
        fwd = transpose(3, 4)
        back = transpose(4, 3)
        for i in range(12):
            assert back(fwd(i, 12), 12) == i

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            transpose(2, 3)(0, 7)


@given(size_log=st.integers(1, 6), k=st.integers(0, 5))
@settings(max_examples=50, deadline=None)
def test_property_all_wirings_are_bijections(size_log, k):
    """Property: every wiring function permutes [0, N) bijectively."""
    size = 1 << size_log
    fns = [
        lambda i: identity(i, size),
        lambda i: perfect_shuffle(i, size),
        lambda i: inverse_shuffle(i, size),
        lambda i: bit_reversal(i, size),
    ]
    if k < size_log:
        fns.append(lambda i: butterfly(i, size, k))
    for fn in fns:
        image = {fn(i) for i in range(size)}
        assert image == set(range(size))
