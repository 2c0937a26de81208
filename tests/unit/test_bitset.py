"""Unit tests for the bit-set substrate (repro.datastructs.bitset)."""

from repro.datastructs.bitset import count_bits, iter_bits


class TestFreeFunctions:
    def test_iter_bits_ascending(self):
        assert list(iter_bits(0b101001)) == [0, 3, 5]

    def test_iter_bits_empty(self):
        assert list(iter_bits(0)) == []

    def test_iter_bits_large_index(self):
        assert list(iter_bits(1 << 1000)) == [1000]

    def test_count_bits(self):
        assert count_bits(0) == 0
        assert count_bits(0b1011) == 3
        assert count_bits((1 << 500) | 1) == 2
