"""Bit packing / unpacking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz.bitstream import PackedBits, pack_codes
from tests.oracles import unpack_bits


class TestPackCodes:
    def test_empty(self):
        packed = pack_codes(np.empty(0, np.uint64), np.empty(0, np.int64))
        assert packed.n_bits == 0
        assert packed.data == b""

    def test_single_bit(self):
        packed = pack_codes(np.array([1], np.uint64), np.array([1]))
        assert packed.n_bits == 1
        assert packed.data == b"\x80"

    def test_known_layout(self):
        # 0b101 (3 bits) then 0b01 (2 bits) -> 10101xxx
        packed = pack_codes(np.array([0b101, 0b01], np.uint64),
                            np.array([3, 2]))
        assert packed.n_bits == 5
        assert packed.data == bytes([0b10101000])

    def test_msb_first_within_code(self):
        packed = pack_codes(np.array([0b100000001], np.uint64), np.array([9]))
        bits = unpack_bits(packed)
        assert list(bits) == [1, 0, 0, 0, 0, 0, 0, 0, 1]

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            pack_codes(np.array([1], np.uint64), np.array([1, 2]))

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError, match="1..64"):
            pack_codes(np.array([1], np.uint64), np.array([0]))
        with pytest.raises(ValueError, match="1..64"):
            pack_codes(np.array([1], np.uint64), np.array([65]))


class TestPackedBits:
    def test_validates_byte_count(self):
        with pytest.raises(ValueError):
            PackedBits(data=b"\x00\x00", n_bits=3)
        with pytest.raises(ValueError):
            PackedBits(data=b"", n_bits=1)
        with pytest.raises(ValueError):
            PackedBits(data=b"\x00", n_bits=-1)

    def test_unpack_roundtrip(self):
        packed = pack_codes(
            np.array([5, 2, 7], np.uint64), np.array([3, 2, 3])
        )
        bits = unpack_bits(packed)
        assert list(bits) == [1, 0, 1, 1, 0, 1, 1, 1]

    def test_unpack_empty(self):
        assert unpack_bits(PackedBits(data=b"", n_bits=0)).size == 0


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    max_len=st.integers(1, 24),
)
@settings(max_examples=50, deadline=None)
def test_pack_unpack_property(seed, n, max_len):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, max_len + 1, size=n)
    codes = np.array(
        [rng.integers(0, 1 << int(l)) for l in lengths], dtype=np.uint64
    )
    packed = pack_codes(codes, lengths)
    assert packed.n_bits == int(lengths.sum())
    bits = unpack_bits(packed)
    # Re-read each code from the bit string.
    pos = 0
    for code, length in zip(codes, lengths):
        val = 0
        for b in bits[pos : pos + length]:
            val = (val << 1) | int(b)
        assert val == int(code)
        pos += int(length)
