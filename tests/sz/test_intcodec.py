"""Integer side-channel codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz import intcodec

int64s = st.integers(min_value=-(2**62), max_value=2**62 - 1)


def _varint_decode_ref(data: bytes, count: int) -> np.ndarray:
    """The byte-at-a-time loop ``varint_decode`` replaced: the
    differential reference for its values and its errors."""
    values = np.empty(count, dtype=np.uint64)
    pos = 0
    n = len(data)
    for i in range(count):
        shift = 0
        acc = 0
        while True:
            if pos >= n:
                raise ValueError("truncated varint stream")
            byte = data[pos]
            pos += 1
            acc |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 63:
                raise ValueError("varint overflows 64 bits")
        try:
            values[i] = acc
        except OverflowError:  # tenth byte carried more than bit 63
            raise ValueError("varint overflows 64 bits") from None
    return intcodec.zigzag_decode(values)


def _outcome(fn, data, count):
    try:
        return fn(data, count).tolist()
    except ValueError as exc:
        return str(exc)


class TestZigzag:
    def test_small_values(self):
        vals = np.array([0, -1, 1, -2, 2], dtype=np.int64)
        assert list(intcodec.zigzag_encode(vals)) == [0, 1, 2, 3, 4]

    def test_roundtrip_extremes(self):
        vals = np.array([0, 1, -1, 2**62, -(2**62), 2**63 - 1, -(2**63)],
                        dtype=np.int64)
        assert np.array_equal(
            intcodec.zigzag_decode(intcodec.zigzag_encode(vals)), vals
        )

    @given(st.lists(int64s, min_size=0, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.int64)
        assert np.array_equal(
            intcodec.zigzag_decode(intcodec.zigzag_encode(arr)), arr
        )


class TestVarint:
    def test_small_values_one_byte(self):
        data = intcodec.varint_encode(np.array([0, -1, 1], dtype=np.int64))
        assert len(data) == 3

    def test_roundtrip(self):
        vals = np.array([0, 1, -1, 127, -128, 300, -99999, 2**40],
                        dtype=np.int64)
        data = intcodec.varint_encode(vals)
        assert np.array_equal(intcodec.varint_decode(data, len(vals)), vals)

    def test_truncated_stream_rejected(self):
        data = intcodec.varint_encode(np.array([99999], dtype=np.int64))
        with pytest.raises(ValueError, match="truncated"):
            intcodec.varint_decode(data[:-1], 1)

    def test_tenth_byte_past_bit_63_rejected(self):
        # Ten bytes is the longest legal varint, but only bit 0 of the
        # tenth byte fits in 64 bits.
        with pytest.raises(ValueError, match="overflows"):
            intcodec.varint_decode(b"\xff" * 9 + b"\x7f", 1)

    def test_overlong_varint_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            intcodec.varint_decode(b"\xff" * 11, 1)

    @given(st.lists(int64s, min_size=0, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.int64)
        data = intcodec.varint_encode(arr)
        assert np.array_equal(intcodec.varint_decode(data, len(arr)), arr)

    @given(
        # Continuation-heavy bytes, so runs of ten and more occur.
        data=st.lists(
            st.one_of(st.integers(0x80, 0xFF), st.integers(0, 0x7F)),
            max_size=40,
        ).map(bytes),
        count=st.integers(0, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_on_any_bytes(self, data, count):
        """Same values, or the same error, as the loop it replaced."""
        assert _outcome(intcodec.varint_decode, data, count) == _outcome(
            _varint_decode_ref, data, count
        )

    @pytest.mark.parametrize(
        "data, count",
        [
            (b"\xff" * 9 + b"\x01", 1),          # tenth byte, bit 63 only
            (b"\xff" * 9 + b"\x02", 1),          # tenth byte past bit 63
            (b"\xff" * 10, 1),                   # unterminated at ten bytes
            (b"\xff" * 9, 1),                    # unterminated at nine
            (b"\x01" + b"\xff" * 9 + b"\x02", 3),  # overflow before truncation
            (b"\x01\x02\x03", 2),                # trailing bytes ignored
            (b"", 0),
            (b"\x80", 0),
        ],
    )
    def test_matches_loop_at_the_edges(self, data, count):
        assert _outcome(intcodec.varint_decode, data, count) == _outcome(
            _varint_decode_ref, data, count
        )


class TestBytePlane:
    def test_empty(self):
        data = intcodec.byteplane_encode(np.empty(0, np.int64))
        assert intcodec.byteplane_decode(data).size == 0

    def test_plane_count_minimal(self):
        # Small magnitudes need one plane: 9-byte header + n bytes.
        vals = np.arange(-60, 60, dtype=np.int64)
        data = intcodec.byteplane_encode(vals)
        assert len(data) == 9 + vals.size

    def test_large_values_more_planes(self):
        vals = np.array([2**40], dtype=np.int64)
        data = intcodec.byteplane_encode(vals)
        assert len(data) == 9 + 6  # zigzag(2^40) needs 6 bytes

    def test_roundtrip_mixed(self):
        vals = np.array([0, -5, 1000, -(2**33), 2**50, 7], dtype=np.int64)
        assert np.array_equal(
            intcodec.byteplane_decode(intcodec.byteplane_encode(vals)), vals
        )

    def test_rejects_truncation(self):
        data = intcodec.byteplane_encode(np.arange(10, dtype=np.int64))
        with pytest.raises(ValueError):
            intcodec.byteplane_decode(data[:-1])
        with pytest.raises(ValueError):
            intcodec.byteplane_decode(data[:4])

    def test_rejects_bad_plane_count(self):
        import struct
        blob = struct.pack("<BQ", 9, 1) + bytes(9)
        with pytest.raises(ValueError, match="plane count"):
            intcodec.byteplane_decode(blob)

    def test_zlib_friendliness(self):
        # Byte planes of small-magnitude data must compress far better
        # than the raw int64 bytes: that is the codec's entire purpose.
        import zlib
        rng = np.random.default_rng(5)
        vals = rng.integers(-100, 100, size=4096).astype(np.int64)
        planes = intcodec.byteplane_encode(vals)
        assert len(zlib.compress(planes)) < len(zlib.compress(vals.tobytes()))

    @given(st.lists(int64s, min_size=0, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.int64)
        out = intcodec.byteplane_decode(intcodec.byteplane_encode(arr))
        assert np.array_equal(out, arr)
