"""Vectorized bit packing for variable-length (Huffman) codes.

Packing accumulates codewords into a flat array of 64-bit *words* (a
vectorized shift register): every codeword lands in at most two
adjacent words, so the whole stream assembles in a handful of NumPy
passes over 8-bytes-per-64-bits buffers — roughly 8x less peak memory
than the byte-per-bit scatter it replaced (kept as ``pack_codes_ref``
in ``tests/oracles.py``, the differential-test oracle).  Unpacking back
into codewords is done by the table-driven decoder in
:mod:`repro.sz.huffman`; this module only provides the raw bit-level
containers.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from repro.core import trace

__all__ = [
    "PackedBits",
    "pack_codes",
    "concat_streams",
    "lane_byte_lengths",
    "sliding_window_u32",
    "sliding_window_u64",
]


@dataclass(frozen=True)
class PackedBits:
    """A bit string stored as bytes plus its exact bit length."""

    data: bytes
    n_bits: int

    def __post_init__(self) -> None:
        if self.n_bits < 0:
            raise ValueError("n_bits must be non-negative")
        if len(self.data) != (self.n_bits + 7) // 8:
            raise ValueError(
                f"{len(self.data)} bytes cannot hold exactly {self.n_bits} bits"
            )


def _check_code_table(codes: np.ndarray, lengths: np.ndarray) -> None:
    """Shared input validation for both packers.

    A zero-length codeword on a present symbol would silently drop the
    symbol from the stream (the decoder would then desynchronize on a
    corrupt bitstream far from the cause), so it is rejected here with
    an explicit message rather than left to produce garbage.
    """
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have the same shape")
    if codes.size == 0:
        return
    if lengths.min() < 1:
        raise ValueError(
            "zero-length codeword: every present symbol needs a length in "
            "1..64 (a 0-length entry would emit no bits and corrupt the "
            "stream)"
        )
    if lengths.max() > 64:
        raise ValueError("codeword lengths must be in 1..64")


#: Codewords per word-packing pass.  Bounds the kernel's transient
#: arrays (~10 int64 temporaries per codeword) to a few hundred KB so
#: peak memory stays dominated by the output words, not the scratch.
_PACK_CHUNK = 1 << 15

#: Below this many codewords pair fusion costs more in extra passes
#: than it saves in kernel elements, so ``pack_codes`` skips it.
_FUSE_MIN = 1 << 12


def _fuse_pairs(
    codes: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge adjacent codeword pairs into single wider codewords.

    Bitstream concatenation is associative, so packing the fused pair
    ``(codes[0] << lengths[1]) | codes[1]`` with length ``lengths[0] +
    lengths[1]`` emits exactly the same bits as packing the two
    codewords separately — but halves the element count every
    downstream kernel pass sees.  Requires codewords already masked to
    their lengths (stray high bits would leak into the partner's slot).
    A trailing unpaired codeword is carried through unchanged.
    """
    m = codes.size >> 1
    c2 = codes[: 2 * m].reshape(m, 2)
    l2 = lengths[: 2 * m].reshape(m, 2)
    fused = (c2[:, 0] << l2[:, 1].astype(np.uint64)) | c2[:, 1]
    flen = l2[:, 0] + l2[:, 1]
    if codes.size & 1:
        fused = np.concatenate([fused, codes[-1:]])
        flen = np.concatenate([flen, lengths[-1:]])
    return fused, flen


def pack_codes(codes: np.ndarray, lengths: np.ndarray) -> PackedBits:
    """Concatenate variable-length codewords MSB-first into a bit string.

    Parameters
    ----------
    codes:
        Codeword values; codeword ``i`` occupies the low ``lengths[i]``
        bits of ``codes[i]``.
    lengths:
        Bit length of each codeword (1..64).

    Notes
    -----
    Word-packed kernel: each codeword is shifted into place inside the
    one or two ``uint64`` output words its bit range touches, and the
    per-word contributions combine with a segmented sum (bit ranges are
    disjoint, so integer addition *is* bitwise OR here).  Work and peak
    memory are ``O(n)`` in the codeword count with small constants —
    the ``max_len`` bit-plane passes and the byte-per-bit scratch of
    the reference packer are gone.  Output bytes are identical to the
    reference packer's (pinned by ``tests/sz/test_bitstream_diff.py``).
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    _check_code_table(codes, lengths)
    if codes.size == 0:
        return PackedBits(data=b"", n_bits=0)

    total_bits = int(lengths.sum())
    n_words = (total_bits + 63) >> 6

    # The contract reads only the low `lengths[i]` bits of each
    # codeword (like the reference packer); mask once up front so
    # stray high bits cannot leak into neighboring slots, and so the
    # fusion rounds below can OR pairs together safely.
    codes = codes & (
        ~np.uint64(0) >> (np.uint64(64) - lengths.astype(np.uint64))
    )
    # Fuse adjacent pairs while every fused codeword still fits in 64
    # bits: canonical Huffman tables cap lengths at 24 (16 when
    # depth-limited), so large streams shrink 2-4x before the word
    # kernel runs, with byte-identical output.
    max_len = int(lengths.max())
    while codes.size >= _FUSE_MIN and 2 * max_len <= 64:
        codes, lengths = _fuse_pairs(codes, lengths)
        max_len *= 2
    words = np.zeros(n_words, dtype=np.uint64)
    # Bit offsets are accumulated chunk-locally (cumsum of the chunk's
    # lengths plus a running base) so no full-stream offset array is
    # ever materialized — the output words dominate peak memory.
    base = 0
    for lo in range(0, codes.size, _PACK_CHUNK):
        hi = min(lo + _PACK_CHUNK, codes.size)
        chunk_ends = np.cumsum(lengths[lo:hi])
        starts = chunk_ends - lengths[lo:hi] + base
        base += int(chunk_ends[-1])
        _pack_words(codes[lo:hi], lengths[lo:hi], starts, words)
    trace.count("huffman.packed_words", n_words)

    if sys.byteorder == "little":
        words.byteswap(inplace=True)  # big-endian byte order within words
    data = words.view(np.uint8)[: (total_bits + 7) >> 3].tobytes()
    return PackedBits(data=data, n_bits=total_bits)


def _pack_words(
    codes: np.ndarray,
    lengths: np.ndarray,
    starts: np.ndarray,
    words: np.ndarray,
) -> None:
    """OR one chunk of codewords into the big-endian ``uint64`` stream.

    Codeword ``i`` occupies stream bits ``starts[i] .. starts[i] +
    lengths[i] - 1``; bit ``p`` lives in word ``p >> 6`` at in-word
    position ``63 - (p & 63)`` (MSB-first).  With lengths capped at 64
    a codeword spans at most two adjacent words: the head lands in word
    ``starts >> 6`` and any spill (``offset + length > 64``) continues
    at the top of the next word.  Codewords must already be masked to
    their lengths (``pack_codes`` does this once up front).
    """
    word_idx = starts >> 6
    end_bit = (starts & 63) + lengths  # in-word end position, 1..127
    spill = end_bit - 64

    # Head contribution: codes aligned so their last bit sits at
    # in-word position end_bit-1 — a left shift by (64 - end_bit) when
    # the codeword fits, a right shift by spill when it runs over.
    mag = np.abs(spill).astype(np.uint64)
    head = np.where(spill > 0, codes >> mag, codes << mag)
    _scatter_or_sorted(words, word_idx, head)

    over = np.nonzero(spill > 0)[0]
    if over.size:
        # Spill contribution: the low `spill` bits of the codeword,
        # left-justified into the start of the following word.
        tail = codes[over] << (np.uint64(64) - mag[over])
        _scatter_or_sorted(words, word_idx[over] + 1, tail)


def _scatter_or_sorted(
    words: np.ndarray, targets: np.ndarray, vals: np.ndarray
) -> None:
    """``words[targets] |= vals`` for non-decreasing ``targets``.

    Contributions hitting one word carry disjoint bit sets, so their
    integer sum equals their OR, and a run-boundary difference of the
    (wrapping) prefix sum yields every word's combined contribution in
    three vectorized ops — no ``ufunc.at`` scatter needed.
    """
    csum = np.cumsum(vals, dtype=np.uint64)
    run_ends = np.nonzero(np.diff(targets))[0]
    run_last = np.concatenate([run_ends, [targets.size - 1]])
    sums = np.diff(csum[run_last], prepend=np.uint64(0))
    words[targets[run_last]] |= sums


def lane_byte_lengths(lane_bits: np.ndarray) -> np.ndarray:
    """Byte length of each lane stream (every lane is byte-padded)."""
    bits = np.asarray(lane_bits, dtype=np.int64)
    if bits.size and int(bits.min()) < 0:
        raise ValueError("lane bit lengths must be non-negative")
    return (bits + 7) >> 3


def concat_streams(lanes: list[PackedBits]) -> bytes:
    """Concatenate byte-padded lane streams into one ``codes`` section.

    Each :class:`PackedBits` is already padded to a whole byte, so lane
    boundaries stay byte-aligned and a decoder can locate lane ``i`` at
    ``sum(lane_byte_lengths(bits[:i]))`` without a stored offset.
    """
    return b"".join(lane.data for lane in lanes)


def sliding_window_u32(data: bytes, pad_bytes: int = 0) -> np.ndarray:
    """Big-endian 32-bit window at every byte offset of ``data``.

    ``out[i]`` holds bytes ``i..i+3`` MSB-first (missing bytes read as
    zero), so the ``w`` bits starting at absolute bit position ``p``
    are ``(out[p >> 3] >> (32 - w - (p & 7))) & ((1 << w) - 1)`` for
    any ``w + (p & 7) <= 32`` — one gather per decoded window, which is
    what makes the lane decode kernel a pure NumPy loop.

    ``pad_bytes`` extends the matrix with that many zero-filled windows
    past the end of ``data`` so callers whose cursors may legitimately
    be probed out of range (e.g. bounds-checked-after-the-fact decode
    loops) never index outside the buffer.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    padded = np.zeros(raw.size + pad_bytes + 3, dtype=np.uint32)
    padded[: raw.size] = raw
    return (
        (padded[:-3] << np.uint32(24))
        | (padded[1:-2] << np.uint32(16))
        | (padded[2:-1] << np.uint32(8))
        | padded[3:]
    )


def sliding_window_u64(data: bytes, pad_bytes: int = 0) -> np.ndarray:
    """Lazy big-endian 64-bit window at every byte offset of ``data``.

    Logically ``out[i]`` holds bytes ``i..i+7`` MSB-first (missing
    bytes read as zero), so the ``w`` bits starting at absolute bit
    position ``p`` are ``(out[p >> 3] >> (64 - w - (p & 7))) &
    ((1 << w) - 1)`` for any ``w + (p & 7) <= 64``.  The wide window
    lets the lane kernel pull several consecutive codewords out of one
    gather: 57 usable bits cover three 16-bit (or two 21-bit) table
    lookups.

    Physically the return value is a **byte-strided view** over one
    zero-padded copy of ``data`` — window ``i`` overlaps windows
    ``i±1`` by 7 bytes, so nothing is materialized beyond the ~n-byte
    pad buffer (the eager 8-shift construction wrote 8 bytes per input
    byte and dominated the decode profile).  Two consequences for
    callers: elements are *native-endian* raw loads, so a gathered
    slice must be ``byteswap()``-ed (on little-endian hosts; the view
    is tagged big-endian so numpy does the right thing everywhere) to
    get the MSB-first value, and the view is unaligned — gather from
    it, don't compute on it in place.  Dtype is big-endian ``i8``
    (same bit pattern as u64) because NumPy refuses mixed ``uint64 >>
    int64`` shifts downstream; the arithmetic sign-fill is harmless
    since every caller masks the shifted value.

    ``pad_bytes`` extends the view with zero-filled windows past the
    end of ``data``, as in :func:`sliding_window_u32`.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    n = raw.size + pad_bytes
    padded = np.zeros(n + 8 - (n % 8 or 8) + 8, dtype=np.uint8)
    padded[: raw.size] = raw
    return np.lib.stride_tricks.as_strided(
        padded.view(">i8"), shape=(n,), strides=(1,)
    )
