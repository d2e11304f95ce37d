"""Vectorized multi-lane Huffman decoding (frame format v3).

The v3 ``codes`` section is K independent, byte-aligned bitstreams
("lanes") under one shared canonical code, plus sub-lane *anchors*
(bit offsets of every ``anchor_stride``-th codeword boundary) carried
in the encrypted tree section.  Lanes and anchors together cut the
stream into many independent *segments*, and this module decodes all
segments simultaneously with NumPy gathers, in one kernel for every
code depth and segment layout:

* one 64-bit gather per segment pulls the next 64 stream bits out of a
  lazy byte-strided window (:func:`~repro.sz.bitstream.sliding_window_u64`),
  which holds ``k = 57 // max_len`` consecutive codewords after any
  in-byte phase (3 x 16-bit or 2 x 21-bit lookups);
* each lookup is one gather into the decoder's packed two-level table
  (:meth:`repro.sz.huffman._Decoder.lane_table`): codes of up to 16
  bits resolve in the root, and the few segments whose root entry is a
  sub-table link take one more gather on the next ``max_len - 16``
  bits.  No window can miss, so there is no search fallback;
* symbols are staged in a small cache-resident block and stored into
  a ``(segments, max_q)`` matrix :data:`_STAGE_COLUMNS` columns at a
  time, touching each output row once per block rather than once per
  symbol.

Segments are sorted by quota so the set still holding symbols at any
iteration is a prefix; a segment that ends mid-group simply stops
being sliced in.  A layout with short segments (the last one of each
lane, or lanes shorter than the stride) is put back in stream order
and trimmed to each quota once, at the end.

The loop runs ``anchor_stride / k`` iterations regardless of input
size, so throughput scales with the segment count; the encoder targets
roughly ``sqrt(n)`` segments (see :func:`repro.sz.huffman.choose_lane_params`),
which keeps each NumPy op wide enough to amortize interpreter
overhead.  Decoding is exact, not speculative: anchors are true
codeword boundaries recorded at encode time, and the final cursor of
every segment is checked against the next segment's start, so any
corruption that slips a cursor off the codeword lattice — including a
window that lands in a Kraft hole and freezes its cursor — is
rejected.
"""

from __future__ import annotations

import numpy as np

from repro.core import trace
from repro.sz import huffman
from repro.sz.bitstream import lane_byte_lengths, sliding_window_u64
from repro.sz.huffman import HuffmanCode, LaneTable

__all__ = ["decode_lanes"]

#: Output columns staged per store (rounded down to whole k-symbol
#: groups): 128 bytes of each segment row per store.
_STAGE_COLUMNS = 32


def _segment_layout(
    table: LaneTable, n_values: int, n_code_bytes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten the lane table into per-segment start/end/quota arrays
    in stream order (validating byte-offset consistency along the way)."""
    byte_lens = lane_byte_lengths(table.lane_bits)
    if int(byte_lens.sum()) != n_code_bytes:
        raise ValueError(
            "codes section length does not match the lane table"
        )
    byte_off = np.concatenate([[0], np.cumsum(byte_lens)])
    sizes = huffman.lane_sizes(n_values, table.n_lanes)
    stride = table.anchor_stride
    starts, ends, quotas = [], [], []
    for l in range(table.n_lanes):
        abs0 = int(byte_off[l]) * 8
        a = table.anchors[l]
        n_seg = a.size + 1
        seg_start = np.empty(n_seg, dtype=np.int64)
        seg_start[0] = abs0
        seg_start[1:] = a + abs0
        seg_end = np.empty(n_seg, dtype=np.int64)
        seg_end[:-1] = seg_start[1:]
        seg_end[-1] = abs0 + int(table.lane_bits[l])
        quota = np.full(n_seg, stride, dtype=np.int64)
        quota[-1] = int(sizes[l]) - (n_seg - 1) * stride
        if quota[-1] < 1 or quota[-1] > stride:
            raise ValueError("lane anchor count does not match the data")
        starts.append(seg_start)
        ends.append(seg_end)
        quotas.append(quota)
    return np.concatenate(starts), np.concatenate(ends), np.concatenate(quotas)


def decode_lanes(
    codes: bytes, code: HuffmanCode, table: LaneTable, n_values: int
) -> np.ndarray:
    """Decode ``n_values`` symbols from a multi-lane ``codes`` section.

    Parameters
    ----------
    codes:
        The concatenated byte-aligned lane streams.
    code:
        The shared canonical Huffman code (from the tree section).
    table:
        Lane/anchor table (from the same tree section).
    n_values:
        Total symbol count across all lanes.

    Raises
    ------
    ValueError
        If the lane table is inconsistent with ``codes``/``n_values``
        or any segment fails to land exactly on its end boundary
        (corrupt or truncated bitstream).
    """
    if n_values == 0:
        return np.empty(0, dtype=np.int64)
    dec = huffman.decoder_for(code)
    tab, root_bits = dec.lane_table()

    start, seg_end, quota = _segment_layout(table, n_values, len(codes))
    trace.count_many({
        "fastdecode.lanes": table.n_lanes,
        "fastdecode.segments": int(quota.size),
    })
    # Sort segments by quota descending: the active set at iteration t
    # is then always a prefix, so the loop works on views, not masks.
    order = np.argsort(-quota, kind="stable")
    cur = start[order]
    ascending = quota[order[::-1]]
    max_q = int(ascending[-1])
    # active[t] = segments still holding symbols at iteration t.
    active = quota.size - np.searchsorted(
        ascending, np.arange(max_q, dtype=np.int64), side="right"
    )
    out = _decode_staged(codes, tab, root_bits, dec.max_len, cur, active, max_q)
    if not np.array_equal(cur, seg_end[order]):
        raise ValueError(
            "corrupt huffman lane stream: segment did not end on its "
            "anchor boundary"
        )
    if int(ascending[0]) != max_q:
        # Short segments: back to stream order, each row trimmed to its
        # quota (segments tile the output contiguously in stream order).
        stream = np.empty_like(out)
        stream[order] = out
        out = stream[np.arange(max_q, dtype=np.int64) < quota[:, None]]
    # The kernel stores packed (rank << 5 | length) entries; resolve
    # ranks to symbol values in one gather now that the boundary check
    # has proven every slot was written.
    return dec.code.symbols[out.reshape(-1) >> 5]


def _decode_staged(
    codes: bytes,
    tab: np.ndarray,
    root_bits: int,
    max_len: int,
    cur: np.ndarray,
    active: np.ndarray,
    max_q: int,
) -> np.ndarray:
    """Decode every segment into row ``i`` of a ``(segments, max_q)``
    matrix of packed table entries, advancing ``cur`` in place.

    One 64-bit gather holds ``k = 57 // max_len`` consecutive windows
    for each segment: after the first lookup the next window starts
    ``len`` bits further into the *same* gathered word, so symbols
    2..k cost only a shift plus one packed-table gather each.  Output
    rows lie ``max_q`` entries apart (a page at the usual stride), so a
    store costs per row touched: columns are staged in a small block
    and stored :data:`_STAGE_COLUMNS` at a time.  Slots past a
    segment's quota are left unwritten.
    """
    sub_bits = max_len - root_bits
    k = (64 - 7) // max_len
    block = k * max(1, _STAGE_COLUMNS // k)
    root_mask = np.int64((1 << root_bits) - 1)
    sub_mask = np.int64((1 << sub_bits) - 1)
    len_mask = np.int32(31)
    hi = np.int64(64 - root_bits)
    # Pad for the worst-case overrun of a corrupt cursor: max_q
    # lookups of max_len bits each, plus slack for the in-byte phase.
    win = sliding_window_u64(codes, pad_bytes=((max_len * max_q + 7) >> 3) + 8)
    out = np.empty((cur.size, max_q), dtype=np.int32)
    for b0 in range(0, max_q, block):
        b1 = min(b0 + block, max_q)
        stage = np.empty((int(active[b0]), b1 - b0), dtype=np.int32)
        for t0 in range(b0, b1, k):
            a0 = int(active[t0])
            c = cur[:a0]
            # The gather materializes the lazy byte-strided windows;
            # astype folds in the big-endian -> native conversion.
            base = win[c >> 3].astype(np.int64)
            # Track the right-shift that exposes the next root window
            # rather than the bits consumed: one fewer subtraction per
            # symbol, and the group's advance is shift0 - shift.
            shift = hi - (c & np.int64(7))
            shift0 = shift.copy()
            for t in range(t0, min(t0 + k, b1)):
                a = int(active[t])
                b, sh = (base, shift) if a == a0 else (base[:a], shift[:a])
                p = tab[(b >> sh) & root_mask]
                if sub_bits:
                    link = np.flatnonzero(p < 0)
                    if link.size:
                        sub = (b[link] >> (sh[link] - sub_bits)) & sub_mask
                        p[link] = tab[sub - p[link]]
                stage[:a, t - b0] = p
                sh -= p & len_mask
            c += shift0 - shift
        out[: stage.shape[0], b0:b1] = stage
    return out
