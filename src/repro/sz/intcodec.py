"""Integer side-channel codecs.

Two codecs for signed integer arrays:

* **zigzag varint** — compact, byte-oriented, sequential; used for the
  small symbol lists inside the serialized Huffman tree.
* **byte-plane** — fully vectorized: zigzag map, find the widest value,
  then store the values column-major as byte *planes* (all low bytes,
  then all second bytes, …).  High planes of small-magnitude data are
  almost entirely zero, which the final zlib stage eats for free.  This
  is the codec for the unpredictable-residual channel, which can be
  large (e.g. a Nyx-like field at eb = 1e-7 is >90 % unpredictable).
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = [
    "zigzag_encode",
    "zigzag_decode",
    "varint_encode",
    "varint_decode",
    "byteplane_encode",
    "byteplane_decode",
]

_HEADER = struct.Struct("<BQ")  # (n_planes, n_values)


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to unsigned: 0,-1,1,-2,2.. -> 0,1,2,3,4.."""
    v = np.asarray(values, dtype=np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    u = np.asarray(values, dtype=np.uint64)
    return ((u >> np.uint64(1)).astype(np.int64)) ^ -(u & np.uint64(1)).astype(
        np.int64
    )


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128-style varint encoding of signed integers (zigzag first)."""
    out = bytearray()
    for u in zigzag_encode(np.atleast_1d(values)).tolist():
        while True:
            byte = u & 0x7F
            u >>= 7
            if u:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    return bytes(out)


def varint_decode(data: bytes, count: int) -> np.ndarray:
    """Decode ``count`` varints; raises ``ValueError`` on truncation.

    Vectorized: every byte below 0x80 ends a varint, so the first
    ``count`` such bytes delimit the values, and one ``reduceat`` ORs
    each value's 7-bit groups together.  A varint that reaches an
    eleventh byte, or whose tenth byte carries more than bit 63,
    overflows 64 bits; the error raised is the one the first bad
    varint in stream order hits.
    """
    if count == 0:
        return np.empty(0, dtype=np.int64)
    raw = np.frombuffer(data, dtype=np.uint8)
    head = raw[:count]
    if len(head) == count and head.max() < 0x80:
        # Every varint is one byte (small tree deltas): the common case.
        return zigzag_decode(head)
    ends = np.flatnonzero(raw < 0x80)[:count]
    starts = np.concatenate(([0], ends[:-1] + 1))
    width = ends + 1 - starts
    # Only a value of 2^63 or more needs ten bytes.
    overflow = len(ends) and width.max() >= 10 and bool(
        ((width > 10) | ((width == 10) & (raw[ends] > 1))).any()
    )
    if len(ends) < count:
        # The next varint runs off the end: truncated, unless it
        # already ran past ten bytes.
        tail = int(ends[-1]) + 1 if len(ends) else 0
        if len(raw) < tail + 10 and not overflow:
            raise ValueError("truncated varint stream")
        raise ValueError("varint overflows 64 bits")
    if overflow:
        raise ValueError("varint overflows 64 bits")
    used = raw[: int(ends[-1]) + 1]
    shift = (np.arange(len(used)) - np.repeat(starts, width)) * 7
    groups = (used & 0x7F).astype(np.uint64) << shift.astype(np.uint64)
    return zigzag_decode(np.bitwise_or.reduceat(groups, starts))


def byteplane_encode(values: np.ndarray) -> bytes:
    """Vectorized byte-plane encoding of a signed int64 array.

    Layout: 9-byte header ``(n_planes, n_values)`` followed by
    ``n_planes`` contiguous planes of ``n_values`` bytes each
    (little-endian plane order: plane 0 = least significant byte).
    """
    v = zigzag_encode(np.ravel(values))
    if v.size == 0:
        return _HEADER.pack(0, 0)
    max_val = int(v.max())
    n_planes = max(1, (max_val.bit_length() + 7) // 8)
    # Little-endian byte view of each value -> (n_values, 8); keep the
    # planes that carry information and transpose to plane-major order.
    planes = v.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :n_planes]
    return _HEADER.pack(n_planes, v.size) + np.ascontiguousarray(planes.T).tobytes()


def byteplane_decode(data: bytes) -> np.ndarray:
    """Inverse of :func:`byteplane_encode`."""
    if len(data) < _HEADER.size:
        raise ValueError("byteplane stream shorter than its header")
    n_planes, n_values = _HEADER.unpack_from(data)
    if n_values == 0:
        return np.empty(0, dtype=np.int64)
    if n_planes < 1 or n_planes > 8:
        raise ValueError(f"invalid plane count {n_planes}")
    body = np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size)
    if body.size != n_planes * n_values:
        raise ValueError(
            f"byteplane body has {body.size} bytes, expected {n_planes * n_values}"
        )
    full = np.zeros((n_values, 8), dtype=np.uint8)
    full[:, :n_planes] = body.reshape(n_planes, n_values).T
    return zigzag_decode(full.reshape(-1).view("<u8").astype(np.uint64))
