"""The multi-lane Huffman format (frame v3) and its vectorized kernel."""

import gc
import struct
import tracemalloc

import numpy as np
import pytest

from repro.sz import fastdecode, huffman, intcodec
from repro.sz.bitstream import concat_streams, sliding_window_u32
from repro.sz.compressor import SZCompressor


def _encode(values, n_lanes, stride):
    symbols, counts = np.unique(values, return_counts=True)
    code = huffman.build_code(symbols, counts)
    enc = huffman.encode_lanes(values, code, n_lanes, stride)
    return code, enc, concat_streams(list(enc.lanes))


def _roundtrip(values, n_lanes, stride):
    code, enc, codes = _encode(values, n_lanes, stride)
    blob = huffman.serialize_lane_tree(code, enc.table)
    code2, table2 = huffman.deserialize_lane_tree(blob, values.size)
    ranks = fastdecode.decode_lanes(codes, code2, table2, values.size)
    assert ranks.dtype == np.int32
    return code2.symbols[ranks]


@pytest.fixture(scope="module")
def skewed_values():
    rng = np.random.default_rng(7)
    return (rng.geometric(0.3, 200_000) + 512).astype(np.int64)


class TestLaneRoundTrip:
    @pytest.mark.parametrize("n_lanes", [1, 4, 16])
    def test_lane_counts(self, skewed_values, n_lanes):
        out = _roundtrip(skewed_values, n_lanes, 1024)
        assert np.array_equal(out, skewed_values)

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 100, 4097])
    def test_awkward_sizes(self, n):
        rng = np.random.default_rng(n)
        values = rng.integers(-50, 50, n).astype(np.int64)
        out = _roundtrip(values, min(16, n), 64)
        assert np.array_equal(out, values)

    def test_stride_smaller_than_lane(self, skewed_values):
        out = _roundtrip(skewed_values[:5000], 4, 16)
        assert np.array_equal(out, skewed_values[:5000])

    def test_stride_larger_than_lane(self, skewed_values):
        # No anchors at all: one segment per lane.
        out = _roundtrip(skewed_values[:5000], 4, 1 << 20)
        assert np.array_equal(out, skewed_values[:5000])

    def test_single_symbol_alphabet(self):
        values = np.full(10_000, -3, dtype=np.int64)
        out = _roundtrip(values, 16, 256)
        assert np.array_equal(out, values)

    def test_long_codes_beyond_table_bits(self):
        # A huge, nearly-uniform alphabet forces codes past
        # DEPTH_LIMIT_BITS, so the kernel resolves them through the
        # lane table's sub-tables.
        rng = np.random.default_rng(3)
        rare = rng.integers(0, 30_000, 60_000)
        common = np.zeros(90_000, dtype=np.int64)
        values = np.concatenate([rare, common]).astype(np.int64)
        rng.shuffle(values)
        code, _, _ = _encode(values, 16, 512)
        assert int(code.lengths.max()) > huffman.DEPTH_LIMIT_BITS
        out = _roundtrip(values, 16, 512)
        assert np.array_equal(out, values)
        # A stream this short takes the scalar loop, which resolves
        # the same long codes through the same sub-tables.
        short = values[code.lengths[np.searchsorted(code.symbols, values)]
                       > huffman.DEPTH_LIMIT_BITS][:3000]
        assert short.size == 3000
        packed = huffman.encode(short, code)
        assert np.array_equal(huffman.decode(packed, code, short.size), short)

    def test_matches_scalar_decoder(self, skewed_values):
        values = skewed_values[:30_000]
        code, enc, codes = _encode(values, 1, 1 << 20)
        # One lane, no anchors: the lane stream is byte-identical to
        # the single-stream format the scalar decoder reads.
        packed = enc.lanes[0]
        scalar = huffman._scan_ranks(huffman.codec_for(code), packed,
                                     values.size)
        table = enc.table
        kernel = fastdecode.decode_lanes(codes, code, table, values.size)
        assert np.array_equal(scalar, kernel)


class TestLaneTableSerialization:
    def test_header_fields_roundtrip(self, skewed_values):
        code, enc, _ = _encode(skewed_values, 16, 2048)
        blob = huffman.serialize_lane_tree(code, enc.table)
        code2, table2 = huffman.deserialize_lane_tree(blob, skewed_values.size)
        assert table2.n_lanes == 16
        assert table2.anchor_stride == 2048
        assert np.array_equal(table2.lane_bits, enc.table.lane_bits)
        for a, b in zip(table2.anchors, enc.table.anchors):
            assert np.array_equal(a, b)
        assert np.array_equal(code2.symbols, code.symbols)
        assert np.array_equal(code2.lengths, code.lengths)

    def test_bad_magic_rejected(self, skewed_values):
        code, enc, _ = _encode(skewed_values[:1000], 4, 256)
        blob = bytearray(huffman.serialize_lane_tree(code, enc.table))
        blob[:4] = b"XXXX"
        with pytest.raises(ValueError, match="magic"):
            huffman.deserialize_lane_tree(bytes(blob), 1000)

    def test_zero_lanes_rejected(self, skewed_values):
        code, enc, _ = _encode(skewed_values[:1000], 4, 256)
        blob = bytearray(huffman.serialize_lane_tree(code, enc.table))
        struct.pack_into("<H", blob, 4, 0)
        with pytest.raises(ValueError, match="[Ll]ane count"):
            huffman.deserialize_lane_tree(bytes(blob), 1000)

    def test_more_lanes_than_symbols_rejected(self, skewed_values):
        code, enc, _ = _encode(skewed_values[:1000], 4, 256)
        blob = huffman.serialize_lane_tree(code, enc.table)
        with pytest.raises(ValueError, match="lanes"):
            huffman.deserialize_lane_tree(blob, 2)

    def test_truncated_table_rejected(self, skewed_values):
        code, enc, _ = _encode(skewed_values[:1000], 4, 256)
        blob = huffman.serialize_lane_tree(code, enc.table)
        with pytest.raises(ValueError):
            huffman.deserialize_lane_tree(blob[:20], 1000)

    def test_anchor_beyond_lane_rejected(self, skewed_values):
        values = skewed_values[:4096]
        code, enc, _ = _encode(values, 1, 1024)
        bad = huffman.LaneTable(
            n_lanes=1,
            anchor_stride=1024,
            lane_bits=enc.table.lane_bits,
            anchors=(enc.table.anchors[0] + int(enc.table.lane_bits[0]),),
        )
        blob = huffman.serialize_lane_tree(code, bad)
        with pytest.raises(ValueError, match="anchor"):
            huffman.deserialize_lane_tree(blob, values.size)

    @staticmethod
    def _lane_blob(code, table, deltas):
        """A tree section whose varint region holds exactly ``deltas``
        (header ``varint_len`` patched to match)."""
        varints = intcodec.varint_encode(np.asarray(deltas, dtype=np.int64))
        return (
            struct.pack("<4sHII", b"HLT1", table.n_lanes,
                        table.anchor_stride, len(varints))
            + table.lane_bits.astype("<i8").tobytes()
            + varints
            + huffman.serialize_tree(code)
        )

    def test_varint_region_one_anchor_short_rejected(self, skewed_values):
        values = skewed_values[:5000]
        code, enc, _ = _encode(values, 4, 256)
        deltas = np.concatenate(
            [np.diff(a, prepend=np.int64(0)) for a in enc.table.anchors]
        )
        blob = self._lane_blob(code, enc.table, deltas[:-1])
        with pytest.raises(ValueError):
            huffman.deserialize_lane_tree(blob, values.size)

    @pytest.mark.parametrize(
        "deltas",
        [[(1 << 63) - 1, (1 << 63) - 1, 2, 2], [1, (1 << 63) - 1, 2, 2]],
        ids=["huge-then-wrap", "wrap-negative"],
    )
    def test_wrapped_anchor_sum_rejected(self, skewed_values, deltas):
        # Positive deltas whose running sum wraps int64 leave a last
        # anchor inside the lane; the wrapped anchors must not reach
        # the kernel as out-of-range segment starts.
        values = skewed_values[: 4 * 64 + 1]
        code, enc, codes = _encode(values, 1, 64)
        blob = self._lane_blob(code, enc.table, deltas)
        with pytest.raises(ValueError, match="anchor"):
            table = huffman.deserialize_lane_tree(blob, values.size)[1]
            fastdecode.decode_lanes(codes, code, table, values.size)


class TestKernelCorruptionRejection:
    def test_codes_length_mismatch(self, skewed_values):
        values = skewed_values[:10_000]
        code, enc, codes = _encode(values, 4, 512)
        with pytest.raises(ValueError, match="length"):
            fastdecode.decode_lanes(codes + b"\x00", code, enc.table, values.size)

    def test_flipped_bits_detected(self, skewed_values):
        # Flip a byte in the middle of lane 0: decoding slips off the
        # codeword lattice and the segment-boundary check fires.  A
        # handful of flips can decode to a *different valid* codeword
        # sequence of the same bit length within one segment — that is
        # information-theoretically undetectable by any entropy coder —
        # so assert on the overwhelmingly common case instead of all.
        values = skewed_values[:50_000]
        code, enc, codes = _encode(values, 4, 512)
        detected = 0
        for pos in range(40, 60):
            corrupt = bytearray(codes)
            corrupt[pos] ^= 0xFF
            try:
                out = fastdecode.decode_lanes(
                    bytes(corrupt), code, enc.table, values.size
                )
                if not np.array_equal(code.symbols[out], values):
                    continue  # silent mis-decode (counted as undetected)
                detected += 1  # decoded identically: flip was in padding
            except ValueError:
                detected += 1
        assert detected >= 15

    def test_truncated_codes_detected(self, skewed_values):
        values = skewed_values[:10_000]
        code, enc, codes = _encode(values, 4, 512)
        with pytest.raises(ValueError):
            fastdecode.decode_lanes(codes[:-8], code, enc.table, values.size)

    def test_wrong_n_values_detected(self, skewed_values):
        values = skewed_values[:10_000]
        code, enc, codes = _encode(values, 4, 512)
        with pytest.raises(ValueError):
            fastdecode.decode_lanes(codes, code, enc.table, values.size - 17)


class TestCompressorIntegration:
    @pytest.mark.parametrize("n_lanes", [1, 4, 16])
    def test_end_to_end_lane_counts(self, n_lanes):
        rng = np.random.default_rng(5)
        field = rng.standard_normal((32, 32, 32)).astype(np.float32)
        comp = SZCompressor(1e-3, huffman_lanes=n_lanes)
        frame = comp.compress(field)
        out = comp.decompress(frame)
        assert np.max(np.abs(out.astype(np.float64) - field)) <= 1e-3 * 1.0001

    def test_auto_lane_selection_scales(self):
        # Lane count scales with the *coded* size, not element count.
        assert huffman.choose_lane_params(100, 400)[0] == 1
        assert huffman.choose_lane_params(1 << 20, 1 << 19)[0] == 4
        assert huffman.choose_lane_params(1 << 20, 1 << 22)[0] == 16
        # Below the lane-format threshold: single lane, no anchors.
        n_lanes, stride = huffman.choose_lane_params(1 << 16, 1 << 17)
        assert n_lanes == 1 and stride >= 1 << 16

    def test_small_payload_emits_v2_frame(self):
        rng = np.random.default_rng(9)
        field = rng.standard_normal((16, 16, 16)).astype(np.float32)
        comp = SZCompressor(1e-3)
        frame = comp.compress(field)
        assert comp.parse_meta(frame.sections["meta"])["version"] == 2
        out = comp.decompress(frame)
        assert np.max(np.abs(out.astype(np.float64) - field)) <= 1e-3 * 1.0001

    def test_explicit_lanes_force_v3_frame(self):
        rng = np.random.default_rng(9)
        field = rng.standard_normal((16, 16, 16)).astype(np.float32)
        comp = SZCompressor(1e-3, huffman_lanes=4)
        frame = comp.compress(field)
        assert comp.parse_meta(frame.sections["meta"])["version"] == 3

    def test_meta_bit_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        field = rng.standard_normal(8192).astype(np.float32)
        comp = SZCompressor(1e-3, huffman_lanes=4)
        frame = comp.compress(field)
        tampered = dict(frame.sections)
        code, table = huffman.deserialize_lane_tree(
            tampered["tree"], field.size
        )
        shrunk = huffman.LaneTable(
            n_lanes=table.n_lanes,
            anchor_stride=table.anchor_stride,
            lane_bits=table.lane_bits - 8,
            anchors=table.anchors,
        )
        tampered["tree"] = huffman.serialize_lane_tree(code, shrunk)
        frame2 = type(frame)(sections=tampered, stats=frame.stats)
        with pytest.raises(ValueError):
            comp.decompress(frame2)


class TestCodecCache:
    def test_decoder_reused_for_same_code(self, skewed_values):
        values = skewed_values[:5000]
        symbols, counts = np.unique(values, return_counts=True)
        code_a = huffman.build_code(symbols, counts)
        code_b = huffman.build_code(symbols, counts)
        # Distinct HuffmanCode objects with equal tables share one codec
        # (and therefore one decode table) process-wide.
        assert huffman.codec_for(code_a) is huffman.codec_for(code_b)
        assert (huffman.codec_for(code_a).decode_table()
                is huffman.codec_for(code_b).decode_table())

    def test_distinct_codes_get_distinct_decoders(self):
        code_a = huffman.build_code(np.array([1, 2]), np.array([3, 5]))
        code_b = huffman.build_code(np.array([1, 3]), np.array([3, 5]))
        assert (huffman.codec_for(code_a).decode_table()
                is not huffman.codec_for(code_b).decode_table())

    def test_deserialized_tree_hits_cache(self, skewed_values):
        values = skewed_values[:5000]
        symbols, counts = np.unique(values, return_counts=True)
        code = huffman.build_code(symbols, counts)
        codec = huffman.codec_for(code)
        restored = huffman.deserialize_tree(huffman.serialize_tree(code))
        # Same table digest: the deserialized frame reuses the cached
        # codec's HuffmanCode instead of recomputing codewords.
        assert restored is codec.code

    def test_cache_bounded(self):
        for i in range(3 * huffman._CODEC_CACHE_SIZE):
            code = huffman.build_code(
                np.array([i, i + 1]), np.array([3, 5])
            )
            huffman.codec_for(code).decode_table()
        assert len(huffman._codec_cache) <= huffman._CODEC_CACHE_SIZE

    def test_cache_clear(self):
        code = huffman.build_code(np.array([1, 2]), np.array([3, 5]))
        huffman.codec_for(code)
        huffman.codec_cache_clear()
        assert len(huffman._codec_cache) == 0

    @staticmethod
    def _deep_code(offset: int) -> huffman.HuffmanCode:
        """A 1-bit code, then 2^15 root prefixes of lengths 17..21,21:
        every one links to a 32-entry sub-table, a 4.5 MB lane table."""
        lengths = np.concatenate([
            [1], np.tile(np.r_[np.arange(17, 22), 21], 1 << 15)
        ]).astype(np.uint8)
        symbols = np.arange(lengths.size, dtype=np.int64) + offset
        return huffman.codec_from_table(symbols, lengths).code

    @pytest.mark.parametrize("budget_mb", [16, 4])
    def test_deep_codes_retain_at_most_the_byte_budget(self, monkeypatch,
                                                       budget_mb):
        """Tables built for hostile deep trees stay within the cache's
        byte budget, and a codec larger than the budget is not kept."""
        budget = budget_mb << 20
        monkeypatch.setattr(huffman, "_CODEC_CACHE_MAX_BYTES", budget,
                            raising=False)
        huffman.codec_cache_clear()
        rng = np.random.default_rng(4)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for i in range(5):
                code = self._deep_code(offset=1000 * i)
                values = rng.choice(code.symbols, size=20_000)
                packed = huffman.encode(values, code)
                # Long enough for the lane kernel, so the lane table is built.
                assert values.size >= huffman.SELF_SYNC_MIN_VALUES
                np.testing.assert_array_equal(
                    huffman.decode(packed, code, values.size), values
                )
                del code, values, packed
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            huffman.codec_cache_clear()
        assert retained <= budget, retained / budget

    def test_real_frame_tables_stay_cached(self):
        from repro.datasets import generate

        comp = SZCompressor(1e-4)
        frame = comp.compress(np.asarray(generate("nyx", size="small")))
        huffman.codec_cache_clear()
        comp.decompress(frame)
        (codec,) = huffman._codec_cache.values()
        tab = codec.decode_table()[0]
        assert tab.nbytes > 1 << 18
        assert huffman._codec_cache.get(codec.digest) is codec


class TestSlidingWindow:
    def test_windows_match_reference_bits(self):
        rng = np.random.default_rng(11)
        data = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
        win = sliding_window_u32(data)
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        for p in [0, 1, 7, 8, 13, 100, 64 * 8 - 20]:
            w = 12
            ref = int("".join(map(str, bits[p : p + w])), 2)
            got = int(win[p >> 3] >> (32 - w - (p & 7))) & ((1 << w) - 1)
            assert got == ref, p

    def test_padding_extends_matrix(self):
        win = sliding_window_u32(b"\xff", pad_bytes=10)
        assert win.size == 11
        assert win[0] == 0xFF000000
        assert (win[1:] == 0).all()
