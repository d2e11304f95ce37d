"""The final lossless stage (paper step 4: "a pass of a lossless
compressor such as GZIP"; Algorithm 1 says "Apply Zlib compression").

A thin, explicit wrapper around :mod:`zlib` so the schemes can reason
about — and the time-breakdown instrumentation can attribute — exactly
one lossless boundary.  The Encr-Quant results in the paper hinge on
what AES-randomized bytes do to *this* stage.
"""

from __future__ import annotations

import zlib

from repro.core import trace

__all__ = ["compress", "decompress", "DEFAULT_LEVEL"]

#: zlib's own default trade-off; SZ uses the Zlib default as well.
DEFAULT_LEVEL = 6


def compress(data: bytes) -> bytes:
    """zlib-compress ``data`` at :data:`DEFAULT_LEVEL`."""
    out = zlib.compress(data, DEFAULT_LEVEL)
    trace.count_many({
        "zlib.deflate_in_bytes": len(data),
        "zlib.deflate_out_bytes": len(out),
    })
    return out


def decompress(data: bytes) -> bytes:
    """Inverse of :func:`compress`; raises ``ValueError`` on bad input."""
    try:
        out = zlib.decompress(data)
    except zlib.error as exc:
        raise ValueError(f"corrupt lossless stream: {exc}") from exc
    trace.count_many({
        "zlib.inflate_in_bytes": len(data),
        "zlib.inflate_out_bytes": len(out),
    })
    return out
