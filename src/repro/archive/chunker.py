"""Content-defined chunking for the v2 archive.

Fixed-size chunking breaks deduplication the moment one byte is
inserted: every later boundary shifts.  Content-defined chunking cuts
where a rolling hash of the *content* hits a mask, so identical runs
of bytes produce identical chunks no matter where they sit in the
stream — which is what makes the store-once blob table catch a
checkpoint shard added twice under different names.

The hash is a gear hash (as in FastCDC): each position sums the
previous 32 bytes as ``h[i] = sum_{k<32} GEAR[b[i-k]] << k``, with a
fixed random 256-entry table.  A position is a cut candidate when the
low ``chunk_bits`` bits of ``h`` are zero (expected spacing
``2**chunk_bits``); min/max bounds are enforced greedily afterwards so
adversarial content can neither starve nor flood the chunker.  The
test reads only those low bits, and a term ``GEAR[b] << k`` with
``k >= chunk_bits`` has none there (carries only move up), so a cut
depends on the last ``min(chunk_bits, 32)`` bytes alone: 12 at the
default, not 32.

The table is seeded constant: chunk boundaries are part of the
archive's deduplication behaviour and must be stable across runs and
machines.
"""

from __future__ import annotations

import numpy as np

__all__ = ["chunk_boundaries", "split"]

#: Default expected chunk size is 4 KiB (2**12)...
DEFAULT_CHUNK_BITS = 12
#: ...bounded to [1 KiB, 32 KiB] regardless of content.
DEFAULT_MIN_SIZE = 1 << 10
DEFAULT_MAX_SIZE = 1 << 15

_WINDOW = 32
_GEAR = np.random.default_rng(0x5EC2).integers(
    0, 1 << 64, size=256, dtype=np.uint64
)


def chunk_boundaries(
    data: bytes,
    *,
    chunk_bits: int = DEFAULT_CHUNK_BITS,
    min_size: int = DEFAULT_MIN_SIZE,
    max_size: int = DEFAULT_MAX_SIZE,
) -> list[int]:
    """Cut points for ``data``, always ending with ``len(data)``.

    A boundary at ``i`` means a chunk ends *after* byte ``i - 1``;
    chunk ``j`` is ``data[cuts[j-1]:cuts[j]]`` (with an implicit 0 at
    the front).
    """
    if chunk_bits < 1 or chunk_bits > 30:
        raise ValueError("chunk_bits must be in [1, 30]")
    if not 0 < min_size <= max_size:
        raise ValueError("need 0 < min_size <= max_size")
    n = len(data)
    if n == 0:
        return [0]
    if n <= min_size:
        return [n]
    b = np.frombuffer(data, dtype=np.uint8)
    g = _GEAR[b]
    h = np.zeros(n, dtype=np.uint64)
    for k in range(_WINDOW):
        h[k:] += g[: n - k] << np.uint64(k)
    mask = np.uint64((1 << chunk_bits) - 1)
    candidates = np.flatnonzero((h & mask) == 0) + 1  # cut AFTER the byte
    cuts: list[int] = []
    start = 0
    idx = 0
    while n - start > max_size:
        idx = np.searchsorted(candidates, start + min_size, side="left")
        cut = int(candidates[idx]) if idx < candidates.size else n
        if cut > start + max_size:
            cut = start + max_size
        cuts.append(cut)
        start = cut
    cuts.append(n)
    return cuts


def split(data: bytes, **kwargs: int) -> list[bytes]:
    """Split ``data`` into content-defined chunks (see
    :func:`chunk_boundaries` for keyword parameters)."""
    cuts = chunk_boundaries(data, **kwargs)
    out = []
    start = 0
    for cut in cuts:
        out.append(data[start:cut])
        start = cut
    return out
