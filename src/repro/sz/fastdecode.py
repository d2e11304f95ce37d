"""Vectorized Huffman decoding: multi-lane v3 frames and long single
streams.

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
* each lookup is one gather into the code's packed two-level table
  (:meth:`repro.sz.huffman.CanonicalCodec.decode_table`, the one the
  scalar loop walks too): codes of up to 16 bits resolve in the root,
  and the few segments whose root entry is a sub-table link take one
  more gather on the next ``max_len - 16`` bits.  No window can miss,
  so there is no search fallback;
* packed table entries are staged in a small cache-resident block and
  stored into a ``(segments, max_q)`` matrix :data:`_STAGE_COLUMNS`
  columns at a time, touching each output row once per block rather
  than once per symbol.

Segments are sorted by quota so the set still holding symbols at any
iteration is a prefix; a segment that ends mid-group simply stops
being sliced in.  Both decoders return symbol *ranks* (positions in
``code.symbols``, int32), not symbol values, as the scalar loop does:
the SZ reader gathers its residuals straight from the ranks
(:func:`repro.sz.predictors.reconstruct`), and ``huffman.decode``
resolves them to values in one gather.
:func:`decode_lanes` writes them in stream order by copying each run
of consecutive full segments with one shift, then each short segment
(the last one of a lane, or a lane shorter than the stride).

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

A single stream (a v2 frame, or any other :func:`repro.sz.huffman.decode`
caller) carries no anchors, so :func:`decode_stream` guesses them:
segment starts every ~64 symbols' worth of bits, decoded by the same
kernel and corrected by self-synchronization until every segment
starts where its predecessor ended.  ``huffman.decode`` routes a
stream here from :data:`repro.sz.huffman.SELF_SYNC_MIN_VALUES` symbols
up; below that the scalar loop's lower fixed cost wins.  The scalar
loop and this kernel are tested against one table-free bit-serial
decoder (``tests/oracles.py``), not against each other.
"""

from __future__ import annotations

import numpy as np

from repro.core import trace
from repro.sz import huffman
from repro.sz.bitstream import (
    PackedBits,
    lane_byte_lengths,
    sliding_window_u64,
)
from repro.sz.huffman import HuffmanCode, LaneTable

__all__ = ["decode_lanes", "decode_stream"]

#: Output columns staged per store (rounded down to whole k-symbol
#: groups): 128 bytes of each segment row per store.
_STAGE_COLUMNS = 32
#: Symbols per guessed segment of a single stream: wide vectors, and
#: short enough for the re-decode rounds to stay cheap.
_SYNC_SEGMENT_SYMBOLS = 64
#: Symbols per segment and kernel call while finding where each
#: segment crosses its target; a segment short of it continues.
_SYNC_QUOTA = 80
#: Re-decode rounds before the unsettled rest of a single stream falls
#: back to the scalar loop.  A code whose lengths are all equal never
#: resynchronizes from a misaligned guess, so it would settle one
#: segment per round.
_SYNC_ROUNDS = 8


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
    """Decode ``n_values`` symbol ranks from a multi-lane ``codes``
    section, in stream order (int32 positions in ``code.symbols``).

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
        return np.empty(0, dtype=np.int32)
    tab, root_bits, max_len = huffman.codec_for(code).decode_table()

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
    out = _decode_staged(codes, tab, root_bits, max_len, cur, active, max_q)
    if not np.array_equal(cur, seg_end[order]):
        raise ValueError(
            "corrupt huffman lane stream: segment did not end on its "
            "anchor boundary"
        )
    # The boundary check has proven every slot up to each quota was
    # written, so the packed (rank << 5 | length) entries can move.
    return _stream_ranks(out, order, quota)


def _stream_ranks(rows: np.ndarray, order: np.ndarray,
                  quota: np.ndarray) -> np.ndarray:
    """The ranks (``entry >> 5``) of the kernel's ``rows``, where row
    ``i`` holds segment ``order[i]``, as one stream-ordered array.

    Segments tile the stream contiguously, so consecutive full
    segments are one run of output: the full rows (a prefix, sorted
    stably by descending quota) move with one shift per run, at most
    one run per lane.  Each short row then moves on its own.
    """
    max_q = rows.shape[1]
    offset = np.cumsum(quota) - quota
    ranks = np.empty(int(quota.sum()), dtype=np.int32)
    n_full = int(np.count_nonzero(quota == max_q))
    full = order[:n_full]
    cuts = [0, *(np.flatnonzero(np.diff(full) != 1) + 1).tolist(), n_full]
    for a, b in zip(cuts[:-1], cuts[1:]):
        dst = int(offset[full[a]])
        np.right_shift(rows[a:b], 5,
                       out=ranks[dst : dst + (b - a) * max_q].reshape(b - a, max_q))
    for row, seg in enumerate(order[n_full:].tolist(), start=n_full):
        dst, q = int(offset[seg]), int(quota[seg])
        np.right_shift(rows[row, :q], 5, out=ranks[dst : dst + q])
    return ranks


def decode_stream(
    packed: PackedBits, code: HuffmanCode, n_values: int
) -> np.ndarray:
    """Decode ``n_values`` symbol ranks (as :func:`decode_lanes`) from
    one single-stream (v2) bitstream through the lane kernel, by
    self-synchronization.

    The stream is cut at guessed bit offsets, one per
    :data:`_SYNC_SEGMENT_SYMBOLS` symbols' worth of bits; segment ``i``
    owns the codewords that start in ``[guess[i], guess[i + 1])``.  A
    round decodes every listed segment from its start until the cursor
    passes the next guess, recording where it crossed (the first
    codeword boundary at or past the guess), how many symbols it made
    and what they were.  Each segment must start where its predecessor
    crossed; the segments whose start moved are decoded again, until
    none moves.  Huffman codes resynchronize within a few codewords
    (Klein & Wiseman, *The Computer Journal* 2003), so a segment
    entered off the codeword lattice usually rejoins the true chain
    before it ends, and its successor then stays put.  Segment 0
    starts at bit 0, so every round settles at least one more segment;
    past :data:`_SYNC_ROUNDS`, the scalar loop decodes the unsettled
    rest in stream order from the last settled boundary.

    Same contract as the scalar loop: exactly ``n_values`` symbols,
    the last ending exactly at ``packed.n_bits``, or ``ValueError``.
    A Kraft hole on the true chain raises; one met only from a guessed
    start does not.
    """
    codec = huffman.codec_for(code)
    tab, root_bits, max_len = codec.decode_table()
    n_bits = packed.n_bits
    if not n_values <= n_bits <= max_len * n_values:
        raise ValueError(
            f"{n_bits} bits cannot hold {n_values} codewords of this code"
        )
    codes = packed.data
    # At least _SYNC_SEGMENT_SYMBOLS bits per segment, more than any
    # codeword, so a start never lies past its own segment's end.
    n_seg = max(1, min(-(-n_values // _SYNC_SEGMENT_SYMBOLS),
                       n_bits // _SYNC_SEGMENT_SYMBOLS))
    guess = np.arange(n_seg + 1, dtype=np.int64) * n_bits // n_seg
    start = guess[:-1].copy()
    count = np.zeros(n_seg, dtype=np.int64)
    end = np.zeros(n_seg, dtype=np.int64)
    rows = np.zeros((n_seg, 0), dtype=np.int32)
    todo = np.arange(n_seg, dtype=np.int64)
    for _ in range(_SYNC_ROUNDS):
        count[todo], end[todo], got = _run_past(
            codes, tab, root_bits, max_len, start[todo], guess[todo + 1]
        )
        if got.shape[1] > rows.shape[1]:
            rows = np.pad(rows, ((0, 0), (0, got.shape[1] - rows.shape[1])))
        rows[todo, : got.shape[1]] = got
        follows = np.ones(n_seg, dtype=bool)
        follows[1:] = start[1:] == end[:-1]
        settled = follows & (end >= 0)
        if settled.all():
            if int(count.sum()) != n_values or int(end[-1]) != n_bits:
                raise ValueError(
                    "huffman bitstream does not hold n_values symbols "
                    "ending at n_bits"
                )
            return _ranks(rows, count)
        first = int(np.argmin(settled))
        if follows[first]:
            raise ValueError("corrupt huffman bitstream: Kraft hole")
        # Move every segment whose predecessor crossed elsewhere; one
        # behind a frozen cursor waits for that cursor to move first.
        todo = np.flatnonzero(~follows[1:] & (end[:-1] >= 0)) + 1
        start[todo] = end[todo - 1]
    head = int(count[:first].sum())
    if head > n_values:
        raise ValueError("huffman bitstream holds more than n_values symbols")
    tail = huffman._scan_ranks(codec, packed, n_values - head,
                               start=int(start[first]))
    return np.concatenate([_ranks(rows[:first], count[:first]), tail])


def _ranks(rows: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranks of the first ``count[i]`` packed entries of every row,
    in order."""
    keep = np.arange(rows.shape[1], dtype=np.int64) < count[:, None]
    return rows[keep] >> 5


def _run_past(
    codes: bytes,
    tab: np.ndarray,
    root_bits: int,
    max_len: int,
    start: np.ndarray,
    target: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode each segment from ``start`` until its cursor reaches
    ``target``: :data:`_SYNC_QUOTA` symbols per segment in the first
    kernel call, a quarter of that in each later one.

    Returns ``(count, end, rows)``: the symbols decoded, the codeword
    boundary where the cursor reached the target (``-1`` where it froze
    in a Kraft hole first) and the packed table entries, one row per
    segment, valid up to ``count``.  Every symbol takes at least one
    bit, so no row is wider than about its segment's span in bits:
    ``rows`` holds at most about two entries per stream bit, however
    unevenly a hostile stream spreads its symbols.
    """
    n = start.size
    count = np.zeros(n, dtype=np.int64)
    end = np.full(n, -1, dtype=np.int64)
    cur = start.copy()
    live = np.arange(n, dtype=np.int64)
    quota = _SYNC_QUOTA
    chunks = []
    while live.size:
        base = cur[live]
        c = base.copy()
        got = _decode_staged(
            codes, tab, root_bits, max_len, c, np.full(quota, live.size), quota
        )
        if live.size < n:
            chunk = np.zeros((n, quota), dtype=np.int32)
            chunk[live] = got
            chunks.append(chunk)
        else:
            chunks.append(got)
        bits = got & np.int32(31)
        # Bits consumed after each symbol: the first symbol to reach
        # the target is the segment's last.
        used = np.cumsum(bits, axis=1, dtype=np.int32)
        short = (used < (target[live] - base)[:, None]).sum(axis=1)
        done = short < quota
        count[live[done]] += short[done] + 1
        end[live[done]] = base[done] + used[np.flatnonzero(done), short[done]]
        # A length-0 entry last means the cursor froze in a Kraft hole.
        going = ~done & (bits[:, -1] != 0)
        count[live[going]] += quota
        cur[live[going]] = c[going]
        live = live[going]
        quota = _SYNC_QUOTA // 4
    return count, end, np.hstack(chunks)


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
