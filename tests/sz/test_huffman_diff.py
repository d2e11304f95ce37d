"""Differential tests: two-queue tree build and the depth-limit flag.

``huffman_lengths_ref`` (``tests/oracles.py``) is the original heapq
construction kept as an oracle; ``_huffman_lengths`` is the O(n)
two-queue build that replaced it on the hot path.  Because the tie-break rule is reproduced exactly,
the two must agree *bit-for-bit* on every frequency table — the code
lengths feed canonical codeword assignment, which feeds the frozen
v2/v3 wire format, so any divergence would silently change frame
bytes.  No writer sets the meta ``DEPTH_LIMITED`` flag, but readers
accept it and enforce its promise, so flagged frames are built here
by setting the bit on default frames.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz import huffman
from repro.sz.compressor import SZCompressor, SZFrame
from repro.sz.huffman import (
    DEPTH_LIMIT_BITS,
    MAX_CODE_LEN,
    _canonical_codewords,
    _huffman_lengths,
    build_code,
)
from tests.oracles import huffman_lengths_ref

freq_tables = st.lists(
    st.integers(min_value=1, max_value=1 << 40), min_size=2, max_size=200
)
# Small value range forces heavy ties — the regime where a wrong
# tie-break rule in the two-queue build would diverge from the heap.
tied_freq_tables = st.lists(
    st.integers(min_value=1, max_value=4), min_size=2, max_size=200
)


def _canonical_codewords_ref(lengths: np.ndarray) -> np.ndarray:
    """Per-symbol canonical assignment loop (the original), kept as the
    oracle for the vectorized :func:`_canonical_codewords`."""
    order = np.lexsort((np.arange(len(lengths), dtype=np.int64), lengths))
    codes = np.zeros(len(lengths), dtype=np.uint64)
    code = 0
    prev_len = 0
    for idx in order:
        ln = int(lengths[idx])
        code <<= ln - prev_len
        codes[idx] = code
        code += 1
        prev_len = ln
    return codes


def _kraft(lengths: np.ndarray) -> float:
    return float(np.sum(2.0 ** -lengths.astype(np.float64)))


class TestTwoQueueVsHeap:
    @given(freq_tables)
    @settings(max_examples=150, deadline=None)
    def test_lengths_bit_identical(self, freqs):
        f = np.asarray(freqs, dtype=np.int64)
        np.testing.assert_array_equal(
            _huffman_lengths(f), huffman_lengths_ref(f)
        )

    @given(tied_freq_tables)
    @settings(max_examples=150, deadline=None)
    def test_lengths_bit_identical_under_ties(self, freqs):
        f = np.asarray(freqs, dtype=np.int64)
        np.testing.assert_array_equal(
            _huffman_lengths(f), huffman_lengths_ref(f)
        )

    @given(freq_tables)
    @settings(max_examples=80, deadline=None)
    def test_kraft_equality(self, freqs):
        # An unconstrained Huffman tree is Kraft-complete exactly.
        lengths = _huffman_lengths(np.asarray(freqs, dtype=np.int64))
        assert _kraft(lengths) == pytest.approx(1.0, abs=1e-12)

    def test_large_zipf_table(self):
        rng = np.random.default_rng(7)
        f = np.sort(rng.zipf(1.3, 20_000).astype(np.int64))[::-1].copy()
        np.testing.assert_array_equal(
            _huffman_lengths(f), huffman_lengths_ref(f)
        )

    def test_two_symbols(self):
        f = np.array([5, 5], dtype=np.int64)
        np.testing.assert_array_equal(_huffman_lengths(f), [1, 1])


class TestCanonicalCodewords:
    @given(freq_tables)
    @settings(max_examples=100, deadline=None)
    def test_vectorized_matches_reference(self, freqs):
        lengths = _huffman_lengths(np.asarray(freqs, dtype=np.int64))
        np.testing.assert_array_equal(
            _canonical_codewords(lengths),
            _canonical_codewords_ref(lengths),
        )

    def test_single_symbol_code(self):
        lengths = np.array([1], dtype=np.int64)
        np.testing.assert_array_equal(
            _canonical_codewords(lengths),
            _canonical_codewords_ref(lengths),
        )

    def test_random_tables_match_reference(self):
        """3,000 length tables in symbol order, as a deserialized tree
        gives them: complete codes up to the length cap, codes with
        holes (dropped symbols), and shallow or one-length codes."""
        rng = np.random.default_rng(21)
        for _ in range(3000):
            n = int(rng.integers(1, 400))
            freqs = rng.zipf(1.3, n).astype(np.int64)
            lengths = _huffman_lengths(freqs)
            lengths = np.minimum(lengths, MAX_CODE_LEN)
            if int((np.int64(1) << (MAX_CODE_LEN - lengths)).sum()) > 1 << MAX_CODE_LEN:
                lengths = huffman._limit_lengths(lengths, freqs, MAX_CODE_LEN)
            keep = rng.random(n) < rng.uniform(0.5, 1.0)
            lengths = lengths[keep] if keep.any() else lengths[:1]
            np.testing.assert_array_equal(
                _canonical_codewords(lengths),
                _canonical_codewords_ref(lengths),
            )


class TestLengthCap:
    def test_build_code_is_the_historical_cap_path(self):
        # build_code() must keep emitting the exact historical lengths
        # (MAX_CODE_LEN cap) — frozen wire format.
        rng = np.random.default_rng(3)
        f = rng.zipf(1.2, 5000).astype(np.int64)
        symbols = np.arange(f.size, dtype=np.int64)
        code = build_code(symbols, f)
        np.testing.assert_array_equal(
            code.lengths.astype(np.int64),
            huffman._limit_lengths(_huffman_lengths(f), f, MAX_CODE_LEN),
        )


class TestEncodeLookup:
    def _reference_lookup(self, code, values):
        idx = np.searchsorted(code.symbols, values)
        return code.codewords[idx], code.lengths[idx].astype(np.int64)

    def test_dense_lut_matches_searchsorted(self):
        rng = np.random.default_rng(11)
        symbols = np.arange(-500, 500, dtype=np.int64)  # contiguous → dense
        f = rng.integers(1, 100, size=symbols.size).astype(np.int64)
        code = build_code(symbols, f)
        values = rng.choice(symbols, size=5000)
        cw, ln = code.lookup(values)
        assert code._encode[0] == "dense"
        rcw, rln = self._reference_lookup(code, values)
        np.testing.assert_array_equal(cw, rcw)
        np.testing.assert_array_equal(ln, rln)

    def test_sparse_fallback_matches_searchsorted(self):
        rng = np.random.default_rng(12)
        symbols = np.unique(rng.integers(-10**9, 10**9, size=400))
        f = rng.integers(1, 100, size=symbols.size).astype(np.int64)
        code = build_code(symbols, f)
        values = rng.choice(symbols, size=5000)
        cw, ln = code.lookup(values)
        assert code._encode[0] == "sparse"
        rcw, rln = self._reference_lookup(code, values)
        np.testing.assert_array_equal(cw, rcw)
        np.testing.assert_array_equal(ln, rln)

    @pytest.mark.parametrize("dtype", [np.uint16, np.int32])
    def test_narrow_codes_encode_as_int64(self, dtype):
        """The compressor hands its ``uint16`` codes to the encoders
        uncast: both streams equal the int64 ones, and a narrow value
        below or above the alphabet is still rejected."""
        rng = np.random.default_rng(13)
        symbols = np.arange(3, 40000, dtype=np.int64)
        code = build_code(symbols, rng.integers(1, 100, size=symbols.size))
        wide = rng.choice(symbols, size=20000)
        narrow = wide.astype(dtype)
        assert huffman.encode(narrow, code) == huffman.encode(wide, code)
        lanes = huffman.encode_lanes(narrow, code, 4, 256)
        assert lanes.lanes == huffman.encode_lanes(wide, code, 4, 256).lanes
        for bad in (0, 2, 40000):
            with pytest.raises(ValueError, match="alphabet"):
                code.lookup(np.array([5, bad], dtype=dtype))

    @pytest.mark.parametrize("dense", [True, False])
    def test_unknown_value_rejected(self, dense):
        if dense:
            symbols = np.arange(16, dtype=np.int64)
        else:
            symbols = np.arange(16, dtype=np.int64) * 10**6
        f = np.arange(1, 17, dtype=np.int64)
        code = build_code(symbols, f)
        bad = np.array([int(symbols[0]) + 1 if not dense else 999])
        with pytest.raises(ValueError, match="alphabet"):
            code.lookup(bad)


class TestDepthLimitedFrames:
    def _field(self, shape=(128, 128), seed=0):
        rng = np.random.default_rng(seed)
        return np.cumsum(
            rng.standard_normal(shape), axis=1
        ).astype(np.float32)

    def test_flag_set_and_round_trip(self):
        # Setting DEPTH_LIMITED (meta flags byte, offset 7) on a default
        # frame whose codes fit the bound changes nothing else: the
        # reader accepts it and decodes exactly as the unflagged frame,
        # on the v2 single-stream path and the v3 lane path alike.
        data = self._field()
        for sc, version in ((SZCompressor(1e-3), 2),
                            (SZCompressor(1e-3, huffman_lanes=4), 3)):
            frame = sc.compress(data)
            meta = bytearray(frame.sections["meta"])
            meta[7] |= 0x02
            flagged = SZFrame(
                sections={**frame.sections, "meta": bytes(meta)},
                stats=frame.stats,
            )
            info = SZCompressor.parse_meta(flagged.sections["meta"])
            assert info["depth_limited"] is True
            assert info["version"] == version
            expected = sc.decompress(frame)
            np.testing.assert_array_equal(sc.decompress(flagged), expected)
            np.testing.assert_allclose(expected, data, atol=1e-3)

    def test_default_frames_unflagged_and_identical(self):
        data = self._field(seed=5)
        plain = SZCompressor(1e-3).compress(data)
        info = SZCompressor.parse_meta(plain.sections["meta"])
        assert info["depth_limited"] is False
        again = SZCompressor(1e-3).compress(data)
        assert plain.sections == again.sections

    def test_unknown_meta_flag_rejected(self):
        frame = SZCompressor(1e-3).compress(self._field(seed=7))
        meta = bytearray(frame.sections["meta"])
        meta[7] |= 0x04
        with pytest.raises(ValueError, match="flags"):
            SZCompressor.parse_meta(bytes(meta))

    def test_lying_depth_flag_rejected(self):
        # A flagged frame whose tree is deeper than DEPTH_LIMIT_BITS is
        # corrupt by definition (FORMAT.md §3) and must not decode.
        from repro.sz.compressor import _check_depth_flag

        rng = np.random.default_rng(8)
        f = rng.zipf(1.1, 30_000).astype(np.int64)
        symbols = np.arange(f.size, dtype=np.int64)
        deep = build_code(symbols, f)
        assert int(deep.lengths.max()) > DEPTH_LIMIT_BITS
        with pytest.raises(ValueError, match="depth-limited"):
            _check_depth_flag({"depth_limited": True}, deep)
        _check_depth_flag({"depth_limited": False}, deep)
