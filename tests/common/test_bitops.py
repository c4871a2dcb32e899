"""Unit and property tests for repro.common.bitops."""

import pytest
from hypothesis import given, strategies as st

from repro.common.bitops import fold_bits, mask


class TestMask:
    def test_zero_width(self):
        assert mask(0) == 0

    def test_small_widths(self):
        assert mask(1) == 0b1
        assert mask(3) == 0b111
        assert mask(8) == 0xFF

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            mask(-1)

    @given(st.integers(min_value=0, max_value=256))
    def test_popcount(self, width):
        assert bin(mask(width)).count("1") == width


class TestFoldBits:
    def test_identity_when_fits(self):
        assert fold_bits(0b1011, 4, 4) == 0b1011

    def test_masks_when_narrower_input(self):
        assert fold_bits(0b1011, 2, 4) == 0b11

    def test_simple_fold(self):
        # 8 bits folded to 4: low nibble XOR high nibble.
        assert fold_bits(0xAB, 8, 4) == (0xA ^ 0xB)

    def test_three_chunk_fold(self):
        value = 0b1100_1010_0110
        expected = 0b1100 ^ 0b1010 ^ 0b0110
        assert fold_bits(value, 12, 4) == expected

    def test_zero_width_output(self):
        assert fold_bits(0xFFFF, 16, 0) == 0

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=16))
    def test_result_fits_width(self, value, in_width, out_width):
        assert 0 <= fold_bits(value, in_width, out_width) < (1 << out_width)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1),
           st.integers(min_value=0, max_value=(1 << 32) - 1),
           st.integers(min_value=1, max_value=12))
    def test_fold_is_linear_under_xor(self, a, b, width):
        assert (fold_bits(a, 32, width) ^ fold_bits(b, 32, width)
                == fold_bits(a ^ b, 32, width))


def _fold_reference(value, in_width, out_width):
    """Chunk the low ``in_width`` bits and XOR the chunks together."""
    value &= (1 << in_width) - 1
    chunks = [(value >> shift) & ((1 << out_width) - 1)
              for shift in range(0, max(in_width, 1), out_width)]
    folded = 0
    for chunk in chunks:
        folded ^= chunk
    return folded


class TestMaskProperties:
    @given(st.integers(min_value=0, max_value=256))
    def test_equals_power_of_two_minus_one(self, width):
        assert mask(width) == 2 ** width - 1

    @given(st.integers(min_value=0, max_value=64),
           st.integers(min_value=0, max_value=64))
    def test_intersection_is_the_narrower_mask(self, a, b):
        assert mask(a) & mask(b) == mask(min(a, b))


class TestFoldBitsProperties:
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=16))
    def test_matches_chunked_reference(self, value, in_width, out_width):
        assert (fold_bits(value, in_width, out_width)
                == _fold_reference(value, in_width, out_width))

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=1, max_value=32),
           st.integers(min_value=1, max_value=16))
    def test_ignores_bits_above_input_width(self, value, in_width,
                                            out_width):
        high = value << in_width
        assert (fold_bits(value | high, in_width, out_width)
                == fold_bits(value, in_width, out_width))

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1),
           st.integers(min_value=1, max_value=16))
    def test_narrow_input_is_masked_not_folded(self, value, width):
        assert fold_bits(value, width, 16) == value & mask(width)

    def test_zero_folds_to_zero(self):
        assert fold_bits(0, 64, 7) == 0

    def test_negative_output_width_is_empty(self):
        assert fold_bits(0xFF, 8, -3) == 0
