"""Differential tests: word-packed kernel vs the reference packer.

``pack_codes_ref`` (``tests/oracles.py``) is the original byte-per-bit
scatter kept as an oracle; ``pack_codes`` is the word-packed kernel
that replaced it on the hot path.  Both must emit byte-identical :class:`PackedBits` for
every valid code/length table — the Huffman section is exactly what
Encr-Quant/Encr-Huffman encrypt, so any packer divergence would
silently move the security boundary and break the frozen wire format.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz.bitstream import PackedBits, pack_codes
from tests.oracles import pack_codes_ref


def _assert_identical(codes: np.ndarray, lengths: np.ndarray) -> None:
    got = pack_codes(codes, lengths)
    want = pack_codes_ref(codes, lengths)
    assert isinstance(got, PackedBits)
    assert got.n_bits == want.n_bits
    assert got.data == want.data


def _random_table(rng, n: int, min_len: int, max_len: int):
    lengths = rng.integers(min_len, max_len + 1, size=n).astype(np.int64)
    # Draw below 2**63 and widen: rng.integers is bounded by int64.
    raw = rng.integers(0, 1 << 62, size=n).astype(np.uint64)
    raw |= raw << np.uint64(2)
    mask = ~np.uint64(0) >> (np.uint64(64) - lengths.astype(np.uint64))
    return raw & mask, lengths


class TestEdgeCases:
    def test_empty_input(self):
        _assert_identical(np.empty(0, np.uint64), np.empty(0, np.int64))

    def test_single_symbol(self):
        _assert_identical(np.array([0b1011], np.uint64), np.array([4]))

    def test_single_one_bit_symbol(self):
        _assert_identical(np.array([1], np.uint64), np.array([1]))

    def test_all_one_bit_codewords(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 2, size=1000).astype(np.uint64)
        _assert_identical(codes, np.ones(1000, dtype=np.int64))

    def test_all_32_bit_codewords(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 1 << 32, size=500).astype(np.uint64)
        _assert_identical(codes, np.full(500, 32, dtype=np.int64))

    def test_all_64_bit_codewords(self):
        rng = np.random.default_rng(2)
        codes, lengths = _random_table(rng, 300, 64, 64)
        _assert_identical(codes, lengths)

    def test_word_boundary_straddles(self):
        # 63-bit + 2-bit codewords force every second symbol to spill
        # across a uint64 word boundary.
        codes = np.array([(1 << 63) - 1, 0b10] * 40, np.uint64)
        lengths = np.array([63, 2] * 40, np.int64)
        _assert_identical(codes, lengths)

    def test_exactly_one_word(self):
        _assert_identical(
            np.array([0xDEADBEEF, 0xCAFEBABE], np.uint64),
            np.array([32, 32], np.int64),
        )

    def test_stray_high_bits_ignored(self):
        # The contract reads only the low `lengths[i]` bits; garbage
        # above them must not leak into neighboring slots.
        codes = np.array([0xFFFF_FFFF_FFFF_FFFF, 0xABCD_EF01_2345_6789],
                         np.uint64)
        lengths = np.array([5, 13], np.int64)
        _assert_identical(codes, lengths)

    def test_chunk_boundary(self):
        # Straddle the kernel's internal _PACK_CHUNK boundary so the
        # running-base offset path is exercised.
        from repro.sz.bitstream import _PACK_CHUNK

        rng = np.random.default_rng(3)
        codes, lengths = _random_table(rng, _PACK_CHUNK + 7, 1, 24)
        _assert_identical(codes, lengths)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2000),
    min_len=st.integers(1, 32),
    span=st.integers(0, 32),
)
@settings(max_examples=100, deadline=None)
def test_differential_random_tables(seed, n, min_len, span):
    rng = np.random.default_rng(seed)
    codes, lengths = _random_table(rng, n, min_len, min(64, min_len + span))
    _assert_identical(codes, lengths)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_differential_huffman_like(seed):
    # Skewed length distribution shaped like a real canonical code:
    # mostly short codewords with a long tail, as the compressor emits.
    rng = np.random.default_rng(seed)
    lengths = np.clip(
        rng.geometric(0.3, size=1500) + 1, 1, 24
    ).astype(np.int64)
    mask = ~np.uint64(0) >> (np.uint64(64) - lengths.astype(np.uint64))
    codes = rng.integers(0, 1 << 62, size=1500).astype(np.uint64) & mask
    _assert_identical(codes, lengths)


class TestZeroLengthGuard:
    """Regression: a 0-length codeword on a present symbol is rejected
    with a clear error by both packers instead of corrupting the
    stream."""

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="zero-length codeword"):
            pack_codes(np.array([1, 2], np.uint64), np.array([3, 0]))

    def test_zero_length_rejected_ref(self):
        with pytest.raises(ValueError, match="zero-length codeword"):
            pack_codes_ref(np.array([1, 2], np.uint64), np.array([3, 0]))

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="zero-length codeword"):
            pack_codes(np.array([1], np.uint64), np.array([-1]))
