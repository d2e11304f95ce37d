"""Canonical Huffman coding."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz import fastdecode, huffman, intcodec
from repro.sz.bitstream import PackedBits
from tests.oracles import decode_ranks_ref


def _code_for(values: np.ndarray) -> huffman.HuffmanCode:
    symbols, counts = np.unique(values, return_counts=True)
    return huffman.build_code(symbols, counts)


class TestBuildCode:
    def test_single_symbol(self):
        code = huffman.build_code(np.array([7]), np.array([100]))
        assert code.n_symbols == 1
        assert code.lengths[0] == 1

    def test_two_symbols_one_bit_each(self):
        code = huffman.build_code(np.array([1, 2]), np.array([3, 5]))
        assert list(code.lengths) == [1, 1]
        assert set(int(c) for c in code.codewords) == {0, 1}

    def test_skewed_frequencies_give_short_code_to_common(self):
        code = huffman.build_code(
            np.array([0, 1, 2, 3]), np.array([1000, 10, 10, 10])
        )
        idx = int(np.searchsorted(code.symbols, 0))
        assert code.lengths[idx] == min(code.lengths)

    def test_kraft_inequality(self):
        rng = np.random.default_rng(0)
        freqs = rng.integers(1, 10_000, size=500)
        code = huffman.build_code(np.arange(500), freqs)
        kraft = (2.0 ** (-code.lengths.astype(float))).sum()
        assert kraft <= 1.0 + 1e-12

    def test_prefix_free(self):
        rng = np.random.default_rng(1)
        freqs = rng.integers(1, 1000, size=64)
        code = huffman.build_code(np.arange(64), freqs)
        words = [
            format(int(c), f"0{int(l)}b")
            for c, l in zip(code.codewords, code.lengths)
        ]
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                if i != j:
                    assert not b.startswith(a)

    def test_length_limited(self):
        # Fibonacci-like frequencies force deep optimal trees; the
        # limiter must cap at MAX_CODE_LEN while staying decodable.
        freqs = [1, 1]
        while len(freqs) < 40:
            freqs.append(freqs[-1] + freqs[-2])
        code = huffman.build_code(np.arange(len(freqs)), np.array(freqs))
        assert int(code.lengths.max()) <= huffman.MAX_CODE_LEN
        kraft = (2.0 ** (-code.lengths.astype(float))).sum()
        assert kraft <= 1.0 + 1e-12

    def test_optimality_against_entropy(self):
        rng = np.random.default_rng(2)
        freqs = rng.integers(1, 5000, size=128).astype(np.float64)
        code = huffman.build_code(np.arange(128), freqs.astype(np.int64))
        p = freqs / freqs.sum()
        entropy = -(p * np.log2(p)).sum()
        mean_length = (p * code.lengths).sum()
        assert entropy <= mean_length <= entropy + 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="align"):
            huffman.build_code(np.array([1, 2]), np.array([1]))
        with pytest.raises(ValueError, match="positive"):
            huffman.build_code(np.array([1]), np.array([0]))
        with pytest.raises(ValueError, match="distinct"):
            huffman.build_code(np.array([1, 1]), np.array([1, 1]))

    def test_empty_alphabet(self):
        code = huffman.build_code(np.empty(0, np.int64), np.empty(0, np.int64))
        assert code.n_symbols == 0


class TestEncodeDecode:
    def test_roundtrip_simple(self):
        values = np.array([1, 2, 1, 1, 3, 2, 1], dtype=np.int64)
        code = _code_for(values)
        packed = huffman.encode(values, code)
        out = huffman.decode(packed, code, len(values))
        assert np.array_equal(out, values)

    def test_roundtrip_large_skewed(self):
        rng = np.random.default_rng(3)
        values = rng.zipf(1.5, size=20_000).astype(np.int64)
        values = np.clip(values, 1, 1 << 20)
        code = _code_for(values)
        packed = huffman.encode(values, code)
        assert np.array_equal(huffman.decode(packed, code, values.size), values)

    def test_roundtrip_negative_symbols(self):
        values = np.array([-5, 3, -5, 0, 3, -5], dtype=np.int64)
        code = _code_for(values)
        packed = huffman.encode(values, code)
        assert np.array_equal(huffman.decode(packed, code, values.size), values)

    def test_long_codes_beyond_table_bits(self):
        # Halving frequencies make a chain of codes 1..21 bits long,
        # past DEPTH_LIMIT_BITS, so the scalar loop resolves the
        # longest through the decode table's sub-tables.
        n = 22
        freqs = np.int64(1) << np.maximum(np.arange(n)[::-1] - 1, 0)
        code = huffman.build_code(np.arange(n), freqs)
        assert int(code.lengths.max()) > huffman.DEPTH_LIMIT_BITS
        rng = np.random.default_rng(4)
        values = rng.integers(0, n, size=3000).astype(np.int64)
        assert values.size < huffman.SELF_SYNC_MIN_VALUES
        packed = huffman.encode(values, code)
        assert np.array_equal(huffman.decode(packed, code, values.size), values)

    def test_encode_rejects_unknown_symbol(self):
        code = _code_for(np.array([1, 2, 3], dtype=np.int64))
        with pytest.raises(ValueError, match="alphabet"):
            huffman.encode(np.array([4], dtype=np.int64), code)

    def test_decode_empty(self):
        code = _code_for(np.array([1], dtype=np.int64))
        out = huffman.decode(PackedBits(data=b"", n_bits=0), code, 0)
        assert out.size == 0

    def test_decode_truncated_stream_raises(self):
        values = np.arange(64, dtype=np.int64).repeat(4)
        code = _code_for(values)
        packed = huffman.encode(values, code)
        short = PackedBits(
            data=packed.data[: len(packed.data) // 4],
            n_bits=8 * (len(packed.data) // 4),
        )
        with pytest.raises(ValueError):
            huffman.decode(short, code, values.size)

    def test_encoded_size_tracks_entropy(self):
        rng = np.random.default_rng(5)
        uniform = rng.integers(0, 256, size=8192).astype(np.int64)
        skewed = (rng.zipf(2.0, size=8192) % 256).astype(np.int64)
        bits_uniform = huffman.encode(uniform, _code_for(uniform)).n_bits
        bits_skewed = huffman.encode(skewed, _code_for(skewed)).n_bits
        assert bits_skewed < bits_uniform


class TestTreeSerialization:
    def test_roundtrip(self):
        values = np.array([-100, 3, 3, 7, -100, 12345], dtype=np.int64)
        code = _code_for(values)
        restored = huffman.deserialize_tree(huffman.serialize_tree(code))
        assert np.array_equal(restored.symbols, code.symbols)
        assert np.array_equal(restored.lengths, code.lengths)
        assert np.array_equal(restored.codewords, code.codewords)

    def test_decode_with_restored_tree(self):
        rng = np.random.default_rng(6)
        values = rng.integers(-50, 50, size=5000).astype(np.int64)
        code = _code_for(values)
        packed = huffman.encode(values, code)
        restored = huffman.deserialize_tree(huffman.serialize_tree(code))
        assert np.array_equal(
            huffman.decode(packed, restored, values.size), values
        )

    def test_empty_tree(self):
        code = huffman.build_code(np.empty(0, np.int64), np.empty(0, np.int64))
        restored = huffman.deserialize_tree(huffman.serialize_tree(code))
        assert restored.n_symbols == 0

    def test_rejects_truncated(self):
        code = _code_for(np.arange(10, dtype=np.int64))
        blob = huffman.serialize_tree(code)
        with pytest.raises(ValueError):
            huffman.deserialize_tree(blob[:3])
        with pytest.raises(ValueError):
            huffman.deserialize_tree(blob[:-2])

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            huffman.deserialize_tree(b"\xff" * 40)

    def test_empty_tree_bytes(self):
        """A serialized empty tree (an empty field's) parses to the empty
        code without building one, and decoding with it fails closed."""
        code = huffman.deserialize_tree(struct.pack("<IB", 0, 0))
        assert code.n_symbols == 0
        assert code.symbols.dtype == np.int64
        assert code.lengths.dtype == np.uint8
        assert code.codewords.dtype == np.uint64
        assert huffman.decode(PackedBits(b"", 0), code, 0).size == 0
        for n in (1, huffman.SELF_SYNC_MIN_VALUES):
            with pytest.raises(ValueError):
                huffman.decode(PackedBits(b"\x00" * 8, 64), code, n)

    def test_hostile_tree_bytes_raise_only_valueerror(self):
        """Hostile headers (counts past the body, lengths past the cap or
        zero) and hostile length bytes (over-subscribed, inconsistent
        with the header, holes) parse to a valid code or raise
        ``ValueError``, and so does decoding with what parses."""
        rng = np.random.default_rng(2024)
        parsed = 0
        for trial in range(3000):
            n = int(rng.integers(0, 40))
            lengths = rng.integers(0 if trial % 7 == 0 else 1, 26, n)
            if trial % 3 == 0 and n:
                # Mostly valid: a real code's lengths, sometimes bent.
                freqs = rng.geometric(0.2, n)
                lengths = huffman._limit_lengths(
                    huffman._huffman_lengths(freqs), freqs, huffman.MAX_CODE_LEN
                )
                if trial % 2:
                    lengths[rng.integers(n)] = rng.integers(0, 26)
            max_len = int(lengths.max()) if n and trial % 5 else int(rng.integers(0, 256))
            head_n = n if trial % 11 else int(rng.integers(0, 1 << 32))
            deltas = rng.integers(-5, 50, n)
            blob = (struct.pack("<IB", head_n, max_len)
                    + intcodec.varint_encode(deltas)
                    + lengths.astype(np.uint8).tobytes())
            if trial % 13 == 0:
                blob = blob[: rng.integers(0, len(blob) + 1)]
            try:
                code = huffman.deserialize_tree(blob)
                parsed += 1
                stream = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
                huffman.decode(PackedBits(stream, 128), code, int(rng.integers(0, 9)))
            except ValueError:
                pass
        assert parsed > 100

    def test_tree_size_scales_with_alphabet(self):
        small = huffman.serialize_tree(_code_for(np.arange(4, dtype=np.int64)))
        big = huffman.serialize_tree(_code_for(np.arange(400, dtype=np.int64)))
        assert len(big) > len(small)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_symbols=st.integers(1, 200),
    n_values=st.integers(1, 2000),
)
@settings(max_examples=30, deadline=None)
def test_huffman_roundtrip_property(seed, n_symbols, n_values):
    rng = np.random.default_rng(seed)
    symbols = np.unique(rng.integers(-(2**40), 2**40, size=n_symbols))
    values = rng.choice(symbols, size=n_values)
    code = _code_for(values)
    packed = huffman.encode(values, code)
    restored = huffman.deserialize_tree(huffman.serialize_tree(code))
    assert np.array_equal(huffman.decode(packed, restored, values.size), values)


class TestFastDecodeTable:
    """The one decode table, as both single-stream routes walk it."""

    def _roundtrip_both_paths(self, values):
        """Decode once through the scalar loop and once through the
        self-synchronizing kernel; both must reproduce the input and
        the bit-serial oracle exactly."""
        code = _code_for(values)
        packed = huffman.encode(values, code)
        # Called directly: huffman.decode sends streams this long
        # through the kernel only.
        scalar = huffman._scan_ranks(code, packed, values.size)
        kernel = fastdecode.decode_stream(packed, code, values.size)
        oracle = decode_ranks_ref(packed, code, values.size)
        for ranks in (scalar, kernel):
            assert ranks.dtype == np.int32
            assert np.array_equal(ranks, oracle)
        assert np.array_equal(code.symbols[oracle], values)

    def test_paths_agree_highly_skewed(self):
        rng = np.random.default_rng(11)
        values = np.zeros(30_000, dtype=np.int64)
        spots = rng.random(values.size) > 0.97
        values[spots] = rng.integers(1, 50, size=int(spots.sum()))
        self._roundtrip_both_paths(values)

    def test_paths_agree_flat(self):
        rng = np.random.default_rng(12)
        values = rng.integers(0, 4096, size=20_000).astype(np.int64)
        self._roundtrip_both_paths(values)

    def test_fast_table_contents(self):
        # Codewords 0, 10, 11 (ranks 0, 1, 2): a 2-bit root whose
        # entries are (rank << 5) | length for every window.
        code = huffman.build_code(np.array([5, 6, 7]), np.array([9, 4, 3]))
        assert code.lengths.tolist() == [1, 2, 2]
        tab, root_bits, max_len = code.decode_table()
        assert (root_bits, max_len) == (2, 2)
        assert tab.tolist() == [
            (0 << 5) | 1, (0 << 5) | 1, (1 << 5) | 2, (2 << 5) | 2
        ]
