"""IEEE-754 byte planes for float arrays.

Algorithm 1's "Compress the unpredictable array using IEEE 754 binary
representation analysis" / "Compress regression coefficients" step.
The floats are stored verbatim, as SZ-1.4 stores its unpredictable
points: every bit is kept.  The words are stored as byte planes (each
byte position across all values), so the highly redundant
sign/exponent/high-mantissa bytes of scientific data become long runs
for the final zlib stage.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["ieee754_encode", "ieee754_decode"]

_HEADER = struct.Struct("<QB")  # (n_values, itemsize)


def ieee754_encode(values: np.ndarray) -> bytes:
    """Byte-plane-pack a float array (float32 or float64), losslessly."""
    v = np.ravel(values)
    if v.dtype == np.float32:
        words = v.view(np.uint32).astype("<u4")
    elif v.dtype == np.float64:
        words = np.ascontiguousarray(v).view(np.uint64).astype("<u8")
    else:
        raise TypeError(f"unsupported dtype {v.dtype}; use float32/float64")
    itemsize = words.dtype.itemsize
    planes = words.view(np.uint8).reshape(-1, itemsize)
    return _HEADER.pack(v.size, itemsize) + np.ascontiguousarray(planes.T).tobytes()


def ieee754_decode(data: bytes) -> np.ndarray:
    """Inverse of :func:`ieee754_encode`; returns float32/float64."""
    if len(data) < _HEADER.size:
        raise ValueError("ieee754 stream shorter than its header")
    n_values, itemsize = _HEADER.unpack_from(data)
    if itemsize not in (4, 8):
        raise ValueError(f"invalid ieee754 itemsize {itemsize}")
    body = np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size)
    if body.size != itemsize * n_values:
        raise ValueError(
            f"ieee754 body has {body.size} bytes, expected {itemsize * n_values}"
        )
    raw = np.ascontiguousarray(body.reshape(itemsize, n_values).T).reshape(-1)
    if itemsize == 4:
        return raw.view("<u4").astype(np.uint32).view(np.float32)
    return raw.view("<u8").astype(np.uint64).view(np.float64)
