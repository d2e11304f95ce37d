"""IEEE-754 binary-analysis codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz.ieee754 import ieee754_decode, ieee754_encode

floats32 = st.floats(allow_nan=False, allow_infinity=False, width=32)


class TestCodec:
    def test_roundtrip_float32_lossless(self):
        vals = np.array([0.0, -1.5, 3.14159, 1e20, -1e-20], dtype=np.float32)
        out = ieee754_decode(ieee754_encode(vals))
        assert out.dtype == np.float32
        assert np.array_equal(out, vals)

    def test_roundtrip_float64_lossless(self):
        vals = np.array([0.0, -1.5, np.pi, 1e300], dtype=np.float64)
        out = ieee754_decode(ieee754_encode(vals))
        assert out.dtype == np.float64
        assert np.array_equal(out, vals)

    def test_empty(self):
        out = ieee754_decode(ieee754_encode(np.empty(0, np.float32)))
        assert out.size == 0

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(TypeError, match="dtype"):
            ieee754_encode(np.arange(4, dtype=np.int32))

    def test_rejects_truncated_stream(self):
        data = ieee754_encode(np.ones(4, dtype=np.float32))
        with pytest.raises(ValueError):
            ieee754_decode(data[:-1])
        with pytest.raises(ValueError):
            ieee754_decode(data[:3])

    def test_rejects_bad_itemsize(self):
        import struct
        with pytest.raises(ValueError, match="itemsize"):
            ieee754_decode(struct.pack("<QB", 0, 3))

    def test_byte_planes_compress_better(self):
        import zlib
        # A smooth field's planes beat its interleaved raw bytes.
        vals = (np.linspace(1.0, 2.0, 4096) + 0.001).astype(np.float32)
        planes = ieee754_encode(vals)
        assert len(zlib.compress(planes)) < len(zlib.compress(vals.tobytes()))

    @given(st.lists(floats32, min_size=0, max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values):
        vals = np.array(values, dtype=np.float32)
        assert np.array_equal(ieee754_decode(ieee754_encode(vals)), vals)
