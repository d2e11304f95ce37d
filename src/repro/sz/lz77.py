"""LZ77 match stage with canonical-Huffman entropy coding (``lz77h``).

The float pipeline's zlib pass treats its input as opaque bytes; this
module is the repo-grown alternative for *repetitive byte payloads*
(logs, checkpoint shards, gradient deltas): a NumPy-vectorized
hash-chain matcher emits a (literal, match) token stream that the
existing canonical Huffman codec (:mod:`repro.sz.huffman`) entropy
codes.  Running the LZ stage compression-side — before any encryption
— is load-bearing, not a convenience: block-cipher output is
incompressible (Klinc et al.), so the archive layer composes
``lz77h`` in front of AES exactly like the float path composes SZ.

Matcher design (everything vectorized, no per-byte Python):

* 4-byte keys at every position via :func:`sliding_window_u32`, hashed
  with a Knuth multiplicative hash into ``2**HASH_BITS`` buckets.
* A stable argsort by bucket groups equal hashes with positions
  ascending; candidate ``j``-back neighbours inside a bucket are the
  classic hash *chain*, scanned to depth :data:`CHAIN_DEPTH` with one
  vectorized pass per depth.
* Match lengths extend 4 bytes per pass over the shrinking active set
  (u32 block compare + a 3-byte tail refinement), capped at
  :data:`MAX_MATCH`.
* The greedy parse walks match *positions* (``searchsorted`` jumps
  whole literal runs), so the only Python loop is over emitted tokens.

Token model (deflate-flavoured, buckets + raw extra bits):

* literals are symbols ``0..255``;
* a match of length ``L`` becomes symbol ``256 + bucket(L - 4)`` in
  the token stream plus ``bucket - 1`` extra bits, where ``bucket`` is
  the bit length of ``L - 4``;
* each match also emits ``bucket(D - 1)`` into a second Huffman
  stream (distances) with its own extra bits.

The wire frame (magic ``LZ7H``, byte layout in docs/FORMAT.md §11) is
fully self-describing and decodes fail-closed: every malformed input
raises ``ValueError``.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.core import trace
from repro.sz import huffman
from repro.sz.bitstream import (
    PackedBits,
    pack_codes,
    sliding_window_u32,
    sliding_window_u64,
)

__all__ = [
    "compress",
    "decompress",
    "tokenize",
    "MIN_MATCH",
    "MAX_MATCH",
    "WINDOW",
    "CHAIN_DEPTH",
    "HASH_BITS",
]

#: Shortest match worth a token (the 4-byte hash key length).
MIN_MATCH = 4
#: Longest match one token encodes.
MAX_MATCH = 1 << 10
#: Farthest back a match may reach.
WINDOW = 1 << 16
#: Hash-chain candidates examined per position.
CHAIN_DEPTH = 8
#: Hash-bucket count exponent.
HASH_BITS = 15

_MAGIC = b"LZ7H"
_VERSION = 1

#: Frame header: magic, version, reserved, token/dist tree byte
#: lengths, raw length, token/match counts, three stream bit lengths.
_LZ_HEADER = struct.Struct("<4sBBIIQQQQQQ")

#: ``bucket(v)`` is the bit length of ``v`` — the index of the highest
#: set bit plus one, 0 for v == 0 — computed exactly with an integer
#: searchsorted over powers of two (no float log2).
_POW2 = (np.int64(1) << np.arange(63, dtype=np.int64)).astype(np.int64)

#: Widest legal buckets given the caps above.
_LEN_BUCKETS = int(MAX_MATCH - MIN_MATCH).bit_length() + 1
_DIST_BUCKETS = int(WINDOW - 1).bit_length() + 1


def _bucket(values: np.ndarray) -> np.ndarray:
    """Vectorized exact bit length of non-negative int64 values."""
    return np.searchsorted(_POW2, values, side="right").astype(np.int64)


#: Light-pair extension cap: pairs whose distance is not *heavy* (see
#: :func:`_best_matches`) stop extending here, bounding the block loop
#: to ``_LIGHT_MAX / 4`` passes.  Long matches live at heavy distances
#: (runs, periodic payloads), which the O(n) scan handles exactly.
_LIGHT_MAX = 128
#: A distance is heavy when at least this many candidate pairs share
#: it; at most ``_HEAVY_DISTANCES`` (by pair count) get the O(n) scan.
_HEAVY_MIN = 256
_HEAVY_DISTANCES = 32


def _extend_matches(
    data: bytes,
    u32: np.ndarray,
    pos: np.ndarray,
    cand: np.ndarray,
    cap: int,
) -> np.ndarray:
    """Match length for each (pos, cand) pair sharing a 4-byte prefix.

    Extends in 4-byte blocks over the shrinking set of still-growing
    pairs, then refines the final 0..3 bytes; every step is a gather +
    compare over the active subset only.
    """
    n = len(data)
    raw = np.frombuffer(data, dtype=np.uint8)
    length = np.full(pos.size, MIN_MATCH, dtype=np.int64)
    limit = np.minimum(np.int64(cap), n - pos)
    active = np.nonzero(length < limit)[0]
    while active.size:
        p = pos[active] + length[active]
        c = cand[active] + length[active]
        fits = length[active] + 4 <= limit[active]
        grew = fits & (u32[p] == u32[c])
        length[active[grew]] += 4
        ending = active[~grew]
        if ending.size:
            keep = np.ones(ending.size, dtype=bool)
            for _ in range(3):
                le = length[ending]
                inb = (le < limit[ending]) & keep
                pe = pos[ending] + le
                ce = cand[ending] + le
                # Out-of-range gathers are masked out by `inb`; clip
                # keeps the index legal without a branch.
                ok = raw[np.minimum(pe, n - 1)] == raw[np.minimum(ce, n - 1)]
                keep = inb & ok
                length[ending[keep]] += 1
                if not keep.any():
                    break
        active = active[grew]
        active = active[length[active] < limit[active]]
    return length


def _mismatch_positions(raw: np.ndarray, d: int) -> np.ndarray:
    """Sorted indices ``j`` with ``raw[j + d] != raw[j]``, plus an
    end-of-overlap sentinel — the per-distance table behind
    :func:`_heavy_lengths`."""
    mism = np.flatnonzero(raw[d:] != raw[:-d])
    return np.append(mism, np.int64(raw.size - d))


def _heavy_lengths(mism: np.ndarray, d: int, p: np.ndarray) -> np.ndarray:
    """Exact match lengths for every pair at one shared distance ``d``.

    A pair starting at ``p`` matches up to the first mismatch at or
    after ``p - d`` — one ``searchsorted`` into the precomputed
    mismatch positions.  O(n) once per distance (amortized by the
    cache in :func:`_best_matches`), independent of pair count or
    match length, which is what makes runs and periodic payloads cheap.
    """
    first = mism[np.searchsorted(mism, p - d)]
    return np.minimum(first - (p - d), np.int64(MAX_MATCH))


def _best_matches(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Per-position best (length, distance), 0 length where no match."""
    n = len(data)
    best_len = np.zeros(n, dtype=np.int64)
    best_dist = np.zeros(n, dtype=np.int64)
    if n < 2 * MIN_MATCH:
        return best_len, best_dist
    raw = np.frombuffer(data, dtype=np.uint8)
    u32 = sliding_window_u32(data, pad_bytes=8)
    n_pos = n - MIN_MATCH + 1
    keys = u32[:n_pos].astype(np.uint64)
    h = ((keys * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)) >> np.uint64(
        32 - HASH_BITS
    )
    order = np.argsort(h, kind="stable")  # ties keep position order
    sh = h[order]
    best_score = np.zeros(n, dtype=np.int64)
    mism_cache: dict[int, np.ndarray] = {}
    for depth in range(1, CHAIN_DEPTH + 1):
        if depth >= n_pos:
            break
        # The depth-j chain neighbour inside a hash bucket; the stable
        # sort keeps positions ascending, so cand < pos by construction.
        same = sh[depth:] == sh[:-depth]
        p = order[depth:]
        c = order[:-depth]
        valid = same & (p - c <= WINDOW) & (u32[p] == u32[c])
        if not valid.any():
            continue
        pv = p[valid]
        cv = c[valid]
        dist = pv - cv

        # Distances shared by many pairs (runs, periodic data) get an
        # exact O(n) scan; the long tail keeps the block-extension
        # loop, bounded per pair by the light cap.  The histogram and
        # its lookup end at the largest distance seen, not at WINDOW.
        counts = np.bincount(dist)
        heavy = np.flatnonzero(counts >= _HEAVY_MIN)
        if heavy.size > _HEAVY_DISTANCES:
            heavy = heavy[
                np.argsort(counts[heavy], kind="stable")[-_HEAVY_DISTANCES:]
            ]
        lengths = np.empty(pv.size, dtype=np.int64)
        heavy_lut = np.zeros(counts.size, dtype=bool)
        heavy_lut[heavy] = True
        light = np.nonzero(~heavy_lut[dist])[0]
        if light.size:
            lengths[light] = _extend_matches(
                data, u32, pv[light], cv[light], _LIGHT_MAX
            )
        for d in heavy.tolist():
            if d not in mism_cache:
                mism_cache[d] = _mismatch_positions(raw, d)
            sel = np.nonzero(dist == d)[0]
            lengths[sel] = _heavy_lengths(mism_cache[d], d, pv[sel])

        # Longest match wins, smallest distance on length ties — both
        # packed into one score.  Positions are unique within a depth,
        # so a gather/compare/assign replaces any scatter reduction.
        score = (lengths << np.int64(17)) + (np.int64(WINDOW) - dist)
        upd = score > best_score[pv]
        best_score[pv[upd]] = score[upd]
    found = best_score > 0
    best_len[found] = best_score[found] >> np.int64(17)
    best_dist[found] = np.int64(WINDOW) - (
        best_score[found] & np.int64((1 << 17) - 1)
    )
    return best_len, best_dist


def tokenize(
    data: bytes,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Greedy-parse ``data`` into ``(tokens, lengths, distances, n_lit)``.

    ``tokens`` is the in-order symbol stream (literals ``0..255``,
    match tokens ``256 + length-bucket``); ``lengths``/``distances``
    are per-match, in stream order.  Exposed for the differential and
    fuzz suites.
    """
    n = len(data)
    arr = np.frombuffer(data, dtype=np.uint8)
    best_len, best_dist = _best_matches(data)
    mpos = np.nonzero(best_len >= MIN_MATCH)[0]
    parts: list[np.ndarray] = []
    lens: list[int] = []
    dists: list[int] = []
    i = 0
    while i < n:
        nxt = np.searchsorted(mpos, i)
        if nxt == mpos.size:
            parts.append(arr[i:n].astype(np.int64))
            i = n
            break
        j = int(mpos[nxt])
        if j > i:
            parts.append(arr[i:j].astype(np.int64))
        length = int(best_len[j])
        lens.append(length)
        dists.append(int(best_dist[j]))
        # Placeholder; rewritten to 256 + bucket once all matches are
        # known (bucketing is one vectorized pass below).
        parts.append(np.full(1, -len(lens), dtype=np.int64))
        i = j + length
    tokens = (
        np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    )
    lengths = np.asarray(lens, dtype=np.int64)
    distances = np.asarray(dists, dtype=np.int64)
    is_match = tokens < 0
    tokens[is_match] = 256 + _bucket(lengths - MIN_MATCH)
    n_lit = int(tokens.size - lengths.size)
    return tokens, lengths, distances, n_lit


def _extras(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(width, extra-bits value) for each bucketed value."""
    k = _bucket(values)
    widths = np.maximum(k - 1, 0)
    base = np.where(k > 0, np.int64(1) << np.maximum(k - 1, 0), 0)
    return widths, values - base


def compress(data: bytes) -> bytes:
    """Compress ``data`` into one self-describing ``LZ7H`` frame."""
    tokens, lengths, distances, n_lit = tokenize(data)
    n_matches = lengths.size
    trace.count_many({
        "lz.literals": n_lit,
        "lz.matches": n_matches,
        "lz.match_bytes": int(lengths.sum()),
    })

    tok_syms, tok_freqs = np.unique(tokens, return_counts=True)
    tok_code = huffman.build_code(tok_syms, tok_freqs)
    tok_stream = huffman.encode(tokens, tok_code)
    tok_tree = huffman.serialize_tree(tok_code)

    dist_bucket = _bucket(distances - 1)
    dst_syms, dst_freqs = np.unique(dist_bucket, return_counts=True)
    dst_code = huffman.build_code(dst_syms, dst_freqs)
    dst_stream = huffman.encode(dist_bucket, dst_code)
    dst_tree = huffman.serialize_tree(dst_code)

    lw, lv = _extras(lengths - MIN_MATCH)
    dw, dv = _extras(distances - 1)
    widths = np.column_stack([lw, dw]).ravel()
    extras = np.column_stack([lv, dv]).ravel()
    present = widths > 0
    extra_stream = pack_codes(extras[present], widths[present])

    header = _LZ_HEADER.pack(
        _MAGIC, _VERSION, 0,
        len(tok_tree), len(dst_tree),
        len(data), tokens.size, n_matches,
        tok_stream.n_bits, dst_stream.n_bits, extra_stream.n_bits,
    )
    return (
        header + tok_tree + dst_tree
        + tok_stream.data + dst_stream.data + extra_stream.data
    )


def _gather_extras(stream: bytes, widths: np.ndarray) -> np.ndarray:
    """Read consecutive ``widths[i]``-bit values from a bit stream.

    Zero-width entries occupy no bits and read as 0, so callers can
    pass the interleaved (length, distance) width sequence directly.
    """
    starts = np.cumsum(widths) - widths
    win = sliding_window_u64(stream, pad_bytes=8)
    if starts.size and int(starts.max()) >> 3 >= len(win):
        raise ValueError("extra-bits widths run past the stream")
    shift = np.minimum(64 - widths - (starts & 7), 63)
    mask = (np.int64(1) << widths) - 1
    vals = win[starts >> 3].astype(np.int64)
    return (vals >> shift) & mask


def decompress(blob: bytes) -> bytes:
    """Inverse of :func:`compress`; raises ``ValueError`` on any
    malformed frame (fail-closed: no partial output)."""
    if len(blob) < _LZ_HEADER.size:
        raise ValueError("LZ7H frame shorter than its header")
    (magic, version, reserved, tok_tree_len, dst_tree_len, raw_len,
     n_tokens, n_matches, tok_bits, dst_bits, extra_bits) = (
        _LZ_HEADER.unpack_from(blob)
    )
    if magic != _MAGIC:
        raise ValueError("bad magic; not an LZ7H frame")
    if version != _VERSION or reserved != 0:
        raise ValueError(f"unsupported LZ7H version {version}")
    if n_matches > n_tokens:
        raise ValueError("more matches than tokens")
    # Every codeword is at least one bit, which bounds the symbol
    # counts by the stream sizes before anything is allocated.
    if n_tokens > tok_bits and n_tokens:
        raise ValueError("token count exceeds token stream capacity")
    if n_matches > dst_bits and n_matches:
        raise ValueError("match count exceeds distance stream capacity")

    offset = _LZ_HEADER.size
    sizes = [
        tok_tree_len, dst_tree_len,
        (tok_bits + 7) // 8, (dst_bits + 7) // 8, (extra_bits + 7) // 8,
    ]
    if offset + sum(sizes) != len(blob):
        raise ValueError("LZ7H frame length does not match its header")
    pieces = []
    for size in sizes:
        pieces.append(blob[offset:offset + size])
        offset += size
    tok_tree, dst_tree, tok_bytes, dst_bytes, extra_bytes = pieces

    if n_tokens == 0:
        if raw_len != 0 or n_matches != 0:
            raise ValueError("empty token stream cannot produce output")
        return b""

    tok_code = huffman.deserialize_tree(tok_tree)
    tokens = huffman.decode(
        PackedBits(data=tok_bytes, n_bits=tok_bits), tok_code, n_tokens
    )
    if len(tokens) != n_tokens:
        raise ValueError("token stream decoded to the wrong symbol count")
    if tokens.size and (
        int(tokens.min()) < 0
        or int(tokens.max()) >= 256 + _LEN_BUCKETS
    ):
        raise ValueError("token symbol out of range")
    is_match = tokens >= 256
    if int(is_match.sum()) != n_matches:
        raise ValueError("match count disagrees with the token stream")

    if n_matches:
        dst_code = huffman.deserialize_tree(dst_tree)
        dist_bucket = huffman.decode(
            PackedBits(data=dst_bytes, n_bits=dst_bits), dst_code, n_matches
        )
        if int(dist_bucket.min()) < 0 or int(dist_bucket.max()) >= _DIST_BUCKETS:
            raise ValueError("distance bucket out of range")
        len_bucket = tokens[is_match] - 256
        lw = np.maximum(len_bucket - 1, 0)
        dw = np.maximum(dist_bucket - 1, 0)
        widths = np.column_stack([lw, dw]).ravel()
        if int(widths.sum()) != extra_bits:
            raise ValueError("extra-bits stream length mismatch")
        extras = _gather_extras(extra_bytes, widths)
        lv = extras[0::2] + np.where(
            len_bucket > 0, np.int64(1) << np.maximum(len_bucket - 1, 0), 0
        )
        dv = extras[1::2] + np.where(
            dist_bucket > 0, np.int64(1) << np.maximum(dist_bucket - 1, 0), 0
        )
        lengths = lv + MIN_MATCH
        distances = dv + 1
        if int(lengths.max()) > MAX_MATCH or int(distances.max()) > WINDOW:
            raise ValueError("match length or distance exceeds format caps")
    else:
        lengths = np.empty(0, dtype=np.int64)
        distances = np.empty(0, dtype=np.int64)
        if extra_bits:
            raise ValueError("extra bits present without matches")

    out_sizes = np.ones(n_tokens, dtype=np.int64)
    out_sizes[is_match] = lengths
    if int(out_sizes.sum()) != raw_len:
        raise ValueError("decoded size disagrees with the frame header")

    # Literals land at their offsets and match spans start zeroed; a
    # match begins at its token index plus the extra bytes of every
    # earlier match.
    out = np.repeat(np.where(is_match, 0, tokens).astype(np.uint8), out_sizes)
    mstarts = np.flatnonzero(is_match) + np.cumsum(lengths - 1) - (lengths - 1)
    if n_matches and int((distances > mstarts).sum()):
        raise ValueError("match distance reaches before the output start")
    for p, length, dist in zip(
        mstarts.tolist(), lengths.tolist(), distances.tolist()
    ):
        src = p - dist
        if dist >= length:
            out[p:p + length] = out[src:src + length]
        else:
            # Overlapping copy: replicate the period, doubling the
            # filled span each pass.
            out[p:p + dist] = out[src:p]
            filled = dist
            while filled < length:
                take = min(filled, length - filled)
                out[p + filled:p + filled + take] = out[p:p + take]
                filled += take
    return out.tobytes()
