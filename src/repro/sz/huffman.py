"""Canonical Huffman coding of the quantization-code array.

This stage produces the two byte sections at the heart of the paper:

* the **serialized tree** — what *Encr-Huffman* encrypts.  Recovering
  Huffman-coded data without the code table is NP-hard in the worst
  case (paper Sec. IV-C, refs [56], [57]), so encrypting only this
  small section keys the whole quantization array when the alphabet
  is large.  A small one hides little: the qi and cloudf48 stand-ins
  at bound 1e-2 code with one symbol (a 7-byte tree), q2 with three
  (docs/SECURITY.md, limitation 2).
* the **codeword bitstream** — together with the tree it forms the
  "quantization array" that *Encr-Quant* encrypts.

Implementation notes
--------------------
* Codes are *canonical*: the tree is fully described by each symbol's
  code length, so the serialized tree is ``(symbols, lengths)`` — far
  smaller than a pointer-based tree dump, and trivially validated.
* Code lengths come from the O(n) two-queue construction over the
  frequency-sorted histogram (:func:`_huffman_lengths`); the original
  ``heapq`` builder survives as ``huffman_lengths_ref`` in
  ``tests/oracles.py``, the differential-test oracle, and the two are
  *bit-identical* — the two-queue tie-breaking (stable frequency sort,
  leaf-before-internal on weight ties, FIFO internals) reproduces the
  heap's exact pop order, so emitted frames and checked-in digests are
  unchanged.
* Code lengths are limited to :data:`MAX_CODE_LEN` with a Kraft-sum
  fix-up (the zlib approach).  This bounds the decode table at
  ``2^16 + 2^24`` entries and the encoder's bit-scatter passes; the
  rate loss versus unrestricted Huffman is negligible for the skewed
  residual histograms SZ produces.
* Every decoder walks one packed two-level table per code
  (:meth:`HuffmanCode.decode_table`) and returns symbol *ranks*
  (int32 positions in ``code.symbols``).  :func:`decode` reads every
  single stream (v2 frames, LZ7H, the image and multilevel codecs):
  from :data:`SELF_SYNC_MIN_VALUES` symbols up it sends the stream
  through the lane kernel by self-synchronization
  (:func:`repro.sz.fastdecode.decode_stream`); shorter streams, such
  as LZ7H's token and distance streams, take the scalar loop
  (:func:`_scan_ranks`), one table lookup per codeword.  The lane
  kernel also reads v3 frames (:mod:`repro.sz.fastdecode`).  The
  differential oracle for both routes is a table-free bit-serial
  decoder in ``tests/oracles.py``.
* A :class:`HuffmanCode` builds its encode LUT and its decode table
  on first use and keeps them, so every lane of one compress shares
  one build.  Encoders never hash a code.  Decoders do, once per tree
  they parse: :func:`deserialize_tree` returns the process-wide
  cached code for that table digest (:func:`codec_from_table`), so
  repeat decodes of one tree share its codewords and decode table.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core import trace
from repro.sz import intcodec
from repro.sz.bitstream import PackedBits, pack_codes

__all__ = [
    "HuffmanCode",
    "LaneEncoding",
    "LaneTable",
    "build_code",
    "encode",
    "encode_lanes",
    "decode",
    "decode_ranks",
    "codec_from_table",
    "codec_cache_clear",
    "serialize_tree",
    "deserialize_tree",
    "serialize_lane_tree",
    "deserialize_lane_tree",
    "lane_sizes",
    "choose_lane_params",
    "MAX_CODE_LEN",
    "DEPTH_LIMIT_BITS",
    "MAX_LANES",
    "SELF_SYNC_MIN_VALUES",
]

#: Hard cap on codeword length (keeps tables and bit passes bounded).
MAX_CODE_LEN = 24
#: The decode table's root width: codes of at most this many bits
#: resolve in the root (at most 64 Ki int32 entries, 256 KB); longer
#: codes take one sub-table gather.  Frames carrying the depth-limit
#: flag (no current writer sets it) promise every code length fits
#: this bound.
DEPTH_LIMIT_BITS = 16
#: Hard cap on the interleaved lane count (wire-format sanity bound).
MAX_LANES = 4096

_TREE_HEADER = struct.Struct("<IB")  # (n_symbols, max_len)

#: Lane-tree section prefix: magic, n_lanes, anchor_stride, varint length.
_LANE_HEADER = struct.Struct("<4sHII")
_LANE_MAGIC = b"HLT1"


#: Above this span-to-alphabet ratio the offset-indexed encode LUT
#: would be mostly holes; fall back to ``searchsorted``.  Quantization
#: codes are a dense integer band around the midpoint, so real frames
#: essentially always take the LUT path.
_DENSE_SLACK = 4096


class HuffmanCode:
    """A canonical Huffman code over an integer alphabet, and the
    tables derived from it.

    Attributes
    ----------
    symbols:
        Sorted, distinct symbol values (int64).
    lengths:
        Code length per symbol (uint8), Kraft-complete-or-under.
    codewords:
        Canonical codeword values (uint64), assigned in
        ``(length, symbol)`` order.

    The encode LUT (:meth:`lookup`) and the decode table
    (:meth:`decode_table`) are built on first use and kept.  A code
    that :func:`codec_from_table` cached is shared by every thread that
    parses its tree, so each table is built once, under the code's
    lock.
    """

    __slots__ = ("symbols", "lengths", "codewords", "_lock", "_decode",
                 "_encode", "_digest", "_charged")

    def __init__(self, symbols: np.ndarray, lengths: np.ndarray,
                 codewords: np.ndarray) -> None:
        if not (len(symbols) == len(lengths) == len(codewords)):
            raise ValueError("symbols/lengths/codewords must align")
        if len(symbols) and int(lengths.max()) > MAX_CODE_LEN:
            raise ValueError("code length exceeds MAX_CODE_LEN")
        self.symbols = symbols
        self.lengths = lengths
        self.codewords = codewords
        self._lock = threading.Lock()
        self._decode: tuple[np.ndarray, int, int] | None = None
        self._encode = None
        #: The table digest, once the decoder cache holds this code.
        self._digest: bytes | None = None
        #: Bytes this code counts for in the cache's byte total.
        self._charged = 0

    @property
    def n_symbols(self) -> int:
        return len(self.symbols)

    def mean_length(self, frequencies: np.ndarray) -> float:
        """Average codeword length in bits under ``frequencies``."""
        total = frequencies.sum()
        if total == 0:
            return 0.0
        return float((frequencies * self.lengths).sum() / total)

    def _derived(self, slot: str, build):
        """The table in ``slot``, built by ``build`` on first use (once,
        under the lock) and charged to the decoder cache if it holds
        this code."""
        table = getattr(self, slot)
        if table is None:
            with self._lock:
                table = getattr(self, slot)
                if table is None:
                    table = build()
                    setattr(self, slot, table)
            _codec_cache_fit(self)
        return table

    def decode_table(self) -> tuple[np.ndarray, int, int]:
        """The code's one decode table ``(tab, root_bits, max_len)``,
        which the scalar loop and the lane kernel both walk.

        Every int32 entry is ``(symbol_rank << 5) | code_length``, so a
        single lookup turns a window into a symbol rank and a bit
        advance; ranks resolve to symbol values in one gather after
        decoding.

        ``tab[:2^r]`` is the root, indexed by the next ``r = min(max_len,
        DEPTH_LIMIT_BITS)`` stream bits.  A code of at most ``r`` bits
        fills its run of root entries directly, so codes of up to 16
        bits never leave the root.  A root prefix that starts a longer
        code holds a negative link ``-start``: the decoder then reads
        the next ``s = max_len - r`` bits and looks up
        ``tab[start + bits]``.  In canonical order the long codes all
        sit above the short ones, so the sub-tables are exactly the
        slice of the would-be ``2^max_len`` full table those codes
        cover, stored contiguously after the root.  Kraft holes stay 0
        at both levels: a window there decodes to length 0, which the
        scalar loop rejects at once and the lane kernel by its
        segment-boundary check.

        The table never exceeds ``2^r + 2^max_len`` entries, no worse
        than a one-level table at ``max_len``.
        """
        return self._derived("_decode", self._build_decode_table)

    def _build_decode_table(self) -> tuple[np.ndarray, int, int]:
        """Fill the table one code length at a time: codes of one
        length are consecutive canonical codewords, so each length is
        one broadcast into a contiguous slice and the build allocates
        no table-sized temporaries."""
        lengths = self.lengths
        if not lengths.size:
            raise ValueError("cannot decode with an empty code")
        max_len = int(lengths.max())
        root_bits = min(max_len, DEPTH_LIMIT_BITS)
        sub_bits = max_len - root_bits
        counts = np.bincount(lengths, minlength=max_len + 1)
        # Ranks in canonical (length, symbol) order.
        ranks = np.argsort(lengths, kind="stable").astype(np.int32)
        first = [0] * (max_len + 1)  # first canonical codeword per length
        for ln in range(1, max_len + 1):
            first[ln] = (first[ln - 1] + int(counts[ln - 1])) << 1
        # Full-table span [lo, hi) of the codes longer than root_bits,
        # and the count of root prefixes it touches (ceil division).
        lo = (first[root_bits] + int(counts[root_bits])) << sub_bits
        hi = first[max_len] + int(counts[max_len])
        n_links = -((lo - hi) >> sub_bits)
        root_size = 1 << root_bits
        tab = np.zeros(root_size + (n_links << sub_bits), dtype=np.int32)
        if n_links:
            tab[lo >> sub_bits : (lo >> sub_bits) + n_links] = -(
                root_size + (np.arange(n_links, dtype=np.int32) << sub_bits)
            )
        pos = 0
        for ln in range(1, max_len + 1):
            n = int(counts[ln])
            if not n:
                continue
            entries = (ranks[pos : pos + n] << 5) | np.int32(ln)
            pos += n
            if ln <= root_bits:
                span = root_bits - ln
                start = first[ln] << span
            else:
                span = max_len - ln
                start = root_size + (first[ln] << span) - lo
            tab[start : start + (n << span)].reshape(n, 1 << span)[:] = (
                entries[:, None]
            )
        return tab, root_bits, max_len

    def _build_encode_tables(self):
        lengths64 = self.lengths.astype(np.int64)
        base = int(self.symbols[0])
        span = int(self.symbols[-1]) - base + 1
        if span > 4 * self.n_symbols + _DENSE_SLACK:
            return ("sparse", lengths64, None, None)
        # Offset-indexed LUT: holes keep length 0, which doubles as the
        # unknown-symbol detector (real codewords never have length 0).
        lut_cw = np.zeros(span, dtype=np.uint64)
        lut_ln = np.zeros(span, dtype=np.int64)
        off = self.symbols - base
        lut_cw[off] = self.codewords
        lut_ln[off] = lengths64
        return ("dense", lengths64, lut_cw, lut_ln)

    def lookup(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-value ``(codewords, lengths)`` for ``values``.

        Dense integer alphabets (the quantization-code common case) go
        through a direct offset-indexed gather; sparse alphabets fall
        back to ``searchsorted``.  ``values`` may have any integer dtype
        (the compressor's codes are ``uint16``): the offsets are taken
        in ``intp``, so a value below the alphabet cannot wrap into
        range.  Raises ``ValueError`` when any value is outside the
        code's alphabet.
        """
        kind, lengths64, lut_cw, lut_ln = self._derived(
            "_encode", self._build_encode_tables
        )
        if kind == "dense":
            off = np.subtract(values, int(self.symbols[0]), dtype=np.intp)
            if off.size and (
                int(off.min()) < 0 or int(off.max()) >= lut_ln.size
            ):
                raise ValueError("value outside the code's alphabet")
            ln = lut_ln[off]
            if not ln.all():
                raise ValueError("value outside the code's alphabet")
            return lut_cw[off], ln
        idx = np.searchsorted(self.symbols, values)
        idx = np.clip(idx, 0, self.n_symbols - 1)
        if not np.array_equal(self.symbols[idx], values):
            raise ValueError("value outside the code's alphabet")
        return self.codewords[idx], lengths64[idx]

    def _nbytes(self) -> int:
        """Bytes of the code and every derived NumPy table held."""
        held = self.symbols.nbytes + self.lengths.nbytes + self.codewords.nbytes
        if self._decode is not None:
            held += self._decode[0].nbytes
        if self._encode is not None:
            held += sum(a.nbytes for a in self._encode[1:] if a is not None)
        return held


def _huffman_lengths(freqs: np.ndarray) -> np.ndarray:
    """Optimal prefix-code lengths via the O(n) two-queue construction.

    Merging weights emerge in nondecreasing order, so after one sort of
    the leaves the two smallest live nodes are always at the front of
    two queues — no heap needed.  Tie-breaking is chosen to replay
    the heap construction (``huffman_lengths_ref`` in
    ``tests/oracles.py``) exactly (bit-identical lengths, pinned by
    ``tests/sz/test_huffman_diff.py``):

    * leaves are stable-sorted by frequency, so equal-frequency leaves
      merge in symbol order (the heap's ``(freq, leaf_id)`` ordering);
    * on a leaf/internal weight tie the *leaf* wins (leaf ids sort
      before the always-larger internal ids in the heap);
    * internals are consumed FIFO — creation order equals id order,
      which is the heap's tie-break among equal internal weights.
    """
    n = len(freqs)
    if n == 1:
        return np.array([1], dtype=np.int64)
    leaf_order = np.argsort(freqs, kind="stable")
    lw = freqs[leaf_order].tolist()
    order = leaf_order.tolist()
    iw: list[int] = []  # internal weights, FIFO, nondecreasing
    ipar: list[int] = []  # ipar[j]: parent internal index of internal j
    lpar = [0] * n  # leaf's parent internal index, by original position
    li = ii = 0
    for created in range(n - 1):
        w = 0
        for _ in range(2):
            if li < n and (ii >= created or lw[li] <= iw[ii]):
                lpar[order[li]] = created
                w += lw[li]
                li += 1
            else:
                ipar.append(created)
                w += iw[ii]
                ii += 1
        iw.append(w)
    # Parents are created after their children, so a reverse walk over
    # the internal nodes sees every parent depth before its children.
    idepth = [0] * (n - 1)
    for j in range(n - 3, -1, -1):
        idepth[j] = idepth[ipar[j]] + 1
    return (
        np.asarray(idepth, dtype=np.int64)[
            np.asarray(lpar, dtype=np.int64)
        ]
        + 1
    )


def _limit_lengths(lengths: np.ndarray, freqs: np.ndarray, max_len: int) -> np.ndarray:
    """Clamp code lengths to ``max_len`` and restore the Kraft inequality.

    Clamping over-long codes pushes the Kraft sum above 1; we repair it
    by lengthening the cheapest (lowest-frequency) symbols whose codes
    still have room to grow — each such step frees ``2^(max_len - l - 1)``
    units of Kraft budget at minimal rate cost.
    """
    lengths = np.minimum(lengths, max_len)
    unit = 1 << max_len  # work in integer units of 2^-max_len
    kraft = int((1 << (max_len - lengths)).sum())
    if kraft <= unit:
        return lengths
    # Lengthen symbols in ascending frequency, skipping already-max codes.
    order = np.argsort(freqs, kind="stable")
    lengths = lengths.copy()
    while kraft > unit:
        progressed = False
        for idx in order:
            if lengths[idx] < max_len:
                kraft -= 1 << (max_len - lengths[idx] - 1)
                lengths[idx] += 1
                progressed = True
                if kraft <= unit:
                    break
        if not progressed:  # pragma: no cover - cannot happen for n <= 2^max_len
            raise RuntimeError("unable to satisfy Kraft inequality")
    return lengths


def _canonical_codewords(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codewords given lengths (symbols already sorted).

    Canonical code ``i`` is ``first_code[l] + rank`` where ``rank`` is
    the symbol's position among equal-length symbols (symbol order) and
    ``first_code[l] = (first_code[l-1] + count[l-1]) << 1`` — a loop of
    at most ``max_len`` scalar steps plus three vectorized passes,
    replacing a per-symbol Python loop (bit-identical by construction;
    the loop is the oracle in ``tests/sz/test_huffman_diff.py``).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n = len(lengths)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    max_len = int(lengths.max())
    counts = np.bincount(lengths, minlength=max_len + 1)
    first = [0]
    for count in counts[:-1].tolist():
        first.append((first[-1] + count) << 1)
    # In (length, symbol) order the symbols fill the length groups one
    # after another, so each symbol's group start and first code are
    # its length's values repeated over the group.
    order = np.argsort(lengths, kind="stable")
    group_start = np.cumsum(counts) - counts
    ranks = np.arange(n, dtype=np.int64) - np.repeat(group_start, counts)
    codes = np.empty(n, dtype=np.uint64)
    codes[order] = (np.repeat(np.asarray(first, dtype=np.uint64), counts)
                    + ranks.astype(np.uint64))
    return codes


def _empty_code() -> HuffmanCode:
    """The code of an empty alphabet (an empty field's tree)."""
    return HuffmanCode(
        symbols=np.empty(0, dtype=np.int64),
        lengths=np.empty(0, dtype=np.uint8),
        codewords=np.empty(0, dtype=np.uint64),
    )


def build_code(symbols: np.ndarray, frequencies: np.ndarray) -> HuffmanCode:
    """Build a length-limited canonical Huffman code.

    Parameters
    ----------
    symbols:
        Distinct symbol values (will be sorted internally).
    frequencies:
        Positive occurrence counts aligned with ``symbols``.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    frequencies = np.asarray(frequencies, dtype=np.int64)
    if symbols.size == 0:
        return _empty_code()
    if symbols.size != frequencies.size:
        raise ValueError("symbols and frequencies must align")
    if (frequencies <= 0).any():
        raise ValueError("all frequencies must be positive")
    if symbols.size > (1 << MAX_CODE_LEN):
        raise ValueError("alphabet too large for MAX_CODE_LEN")
    order = np.argsort(symbols)
    symbols = symbols[order]
    frequencies = frequencies[order]
    if np.unique(symbols).size != symbols.size:
        raise ValueError("symbols must be distinct")
    lengths = _limit_lengths(
        _huffman_lengths(frequencies), frequencies, MAX_CODE_LEN
    )
    codewords = _canonical_codewords(lengths)
    return HuffmanCode(
        symbols=symbols,
        lengths=lengths.astype(np.uint8),
        codewords=codewords,
    )


def encode(values: np.ndarray, code: HuffmanCode) -> PackedBits:
    """Huffman-encode an int array (vectorized lookup + bit pack)."""
    values = np.ravel(values)
    if values.size == 0:
        return PackedBits(data=b"", n_bits=0)
    codewords, lengths = code.lookup(values)
    trace.count("huffman.encode_lanes", 1)
    return pack_codes(codewords, lengths)


def serialize_tree(code: HuffmanCode) -> bytes:
    """Serialize the canonical code table ("the Huffman tree").

    Layout: header ``(n_symbols, max_len)``, varint-encoded
    delta-sorted symbol values, then one length byte per symbol.  This
    byte string is the section Encr-Huffman encrypts.
    """
    n = code.n_symbols
    max_len = int(code.lengths.max()) if n else 0
    deltas = np.diff(code.symbols, prepend=np.int64(0)) if n else np.empty(0, np.int64)
    return (
        _TREE_HEADER.pack(n, max_len)
        + intcodec.varint_encode(deltas)
        + code.lengths.tobytes()
    )


def deserialize_tree(data: bytes) -> HuffmanCode:
    """Rebuild a :class:`HuffmanCode` from :func:`serialize_tree` output."""
    if len(data) < _TREE_HEADER.size:
        raise ValueError("huffman tree stream shorter than its header")
    n, max_len = _TREE_HEADER.unpack_from(data)
    if max_len > MAX_CODE_LEN:
        raise ValueError(f"serialized tree max length {max_len} exceeds cap")
    if n == 0:
        return _empty_code()
    body = data[_TREE_HEADER.size :]
    if len(body) < n:
        raise ValueError("truncated huffman tree stream")
    lengths = np.frombuffer(body[-n:], dtype=np.uint8)
    # varint_decode validates the stream itself.
    deltas = intcodec.varint_decode(body[: len(body) - n], n)
    symbols = np.cumsum(deltas).astype(np.int64)
    if np.unique(symbols).size != n:
        raise ValueError("serialized tree contains duplicate symbols")
    if lengths.min() < 1 or lengths.max() != max_len:
        raise ValueError("serialized tree lengths are inconsistent")
    # An over-subscribed code (Kraft sum > 1) has no canonical codeword
    # assignment; building one would overflow the decode tables, so an
    # attacker-controlled tree must be rejected here, at the parse.
    kraft = int(
        (np.int64(1) << (np.int64(max_len) - lengths.astype(np.int64))).sum()
    )
    if kraft > 1 << int(max_len):
        raise ValueError("serialized tree violates the Kraft inequality")
    return codec_from_table(symbols, lengths.copy())


# ----------------------------------------------------------------------
# Multi-lane interleaved streams (frame format v3)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LaneTable:
    """Decode-side description of an N-lane interleaved bitstream.

    ``anchors[l]`` holds the *within-lane* bit offset of every
    ``anchor_stride``-th codeword boundary (excluding offset 0, which is
    the lane start).  Anchors are sub-lane entry points: they let the
    vectorized kernel decode many independent segments at once instead
    of being limited to ``n_lanes``-wide vectors.  The table travels
    inside the serialized-tree section, so Encr-Quant / Encr-Huffman
    encrypt it together with the code table and the security argument
    (no tree, no decode) is unchanged.
    """

    n_lanes: int
    anchor_stride: int
    lane_bits: np.ndarray
    anchors: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class LaneEncoding:
    """Encoder output for one value array: K lane streams + anchors."""

    lanes: tuple[PackedBits, ...]
    table: LaneTable

    @property
    def n_bits(self) -> int:
        return int(self.table.lane_bits.sum())


def lane_sizes(n_values: int, n_lanes: int) -> np.ndarray:
    """Contiguous-split lane lengths (``np.array_split`` rule).

    The first ``n_values % n_lanes`` lanes get one extra element; the
    rule is part of the wire format (the decoder re-derives it), so it
    must never change for format v3.
    """
    if n_lanes < 1:
        raise ValueError("n_lanes must be at least 1")
    base, extra = divmod(n_values, n_lanes)
    sizes = np.full(n_lanes, base, dtype=np.int64)
    sizes[:extra] += 1
    return sizes


#: Below this many coded bits (64 KB of codes) the auto encoder writes
#: the legacy single-stream v2 frame: decode time is trivial at that
#: size and the lane/anchor table would be a visible CR overhead —
#: especially on run-dominated streams where the lossless stage crushes
#: the codes but not the high-entropy anchor varints.
LANE_FORMAT_MIN_BITS = 1 << 19
#: Auto anchor density: roughly one anchor per this many coded bits
#: (512 bytes), keeping the table at ~0.2-0.4 % of the codes section.
ANCHOR_SPACING_BITS = 1 << 12


def choose_lane_params(n_values: int, total_bits: int | None = None) -> tuple[int, int]:
    """Pick ``(n_lanes, anchor_stride)`` for ``n_values`` symbols whose
    encoding occupies ``total_bits``.

    Both knobs scale with the *coded* size, not the element count: a
    lane per ~32 KB of codes (capped at 16) and an anchor per ~512
    bytes.  Decode-kernel vector width therefore grows with the work
    available while the table stays a fixed small fraction of the
    stream.  Below :data:`LANE_FORMAT_MIN_BITS` the returned stride
    exceeds ``n_values`` (no anchors) and the lane count is 1 — the
    signal the encoder uses to fall back to the v2 single-stream frame.
    """
    if n_values <= 0:
        return 1, 1024
    if total_bits is None:
        total_bits = 4 * n_values  # rough prior: skewed SZ histograms
    if total_bits < LANE_FORMAT_MIN_BITS:
        return 1, max(1024, n_values)
    n_lanes = min(MAX_LANES, 16, max(4, total_bits >> 18), n_values)
    target = -(-ANCHOR_SPACING_BITS * n_values // total_bits)
    stride = 1 << max(10, int(target - 1).bit_length())
    return n_lanes, stride


def encode_lanes(
    values: np.ndarray,
    code: HuffmanCode,
    n_lanes: int,
    anchor_stride: int,
) -> LaneEncoding:
    """Huffman-encode ``values`` as ``n_lanes`` independent bitstreams.

    Every lane is a self-contained stream under the shared canonical
    code, padded to a byte boundary so the concatenated ``codes``
    section keeps lanes byte-aligned.  ``values`` are read in their own
    integer dtype, one lane at a time (:meth:`HuffmanCode.lookup`).
    """
    values = np.ravel(values)
    if not 1 <= n_lanes <= MAX_LANES:
        raise ValueError(f"n_lanes must be in 1..{MAX_LANES}")
    if values.size and n_lanes > values.size:
        raise ValueError("more lanes than values")
    if anchor_stride < 1:
        raise ValueError("anchor_stride must be positive")
    if values.size == 0:
        table = LaneTable(
            n_lanes=1,
            anchor_stride=anchor_stride,
            lane_bits=np.zeros(1, dtype=np.int64),
            anchors=(np.empty(0, dtype=np.int64),),
        )
        return LaneEncoding(lanes=(PackedBits(data=b"", n_bits=0),), table=table)

    bounds = np.concatenate([[0], np.cumsum(lane_sizes(values.size, n_lanes))])
    lanes, anchors = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # One lane's codewords at a time: no full-size codeword or
        # length array is ever built.
        lane_cw, lane_lens = code.lookup(values[lo:hi])
        lanes.append(pack_codes(lane_cw, lane_lens))
        # Bit offset where codeword anchor_stride, 2*anchor_stride, ...
        # begins: the boundary *after* the preceding codeword.  Only every
        # anchor_stride-th prefix sum is needed, so sum stride-sized blocks
        # and cumsum those instead of materializing the full prefix array.
        n_anchors = max(0, -(-lane_lens.size // anchor_stride) - 1)
        blocks = lane_lens[: n_anchors * anchor_stride].reshape(
            n_anchors, anchor_stride
        )
        anchors.append(np.cumsum(blocks.sum(axis=1, dtype=np.int64)))
    trace.count("huffman.encode_lanes", n_lanes)
    table = LaneTable(
        n_lanes=n_lanes,
        anchor_stride=anchor_stride,
        lane_bits=np.array([lane.n_bits for lane in lanes], dtype=np.int64),
        anchors=tuple(anchors),
    )
    return LaneEncoding(lanes=tuple(lanes), table=table)


def _anchor_counts(n_values: int, n_lanes: int, stride: int) -> np.ndarray:
    """Per-lane anchor count implied by the contiguous-split rule."""
    sizes = lane_sizes(n_values, n_lanes)
    return np.maximum(0, -(-sizes // stride) - 1)


def serialize_lane_tree(code: HuffmanCode, table: LaneTable) -> bytes:
    """Serialize lane table + canonical code table (tree section v2).

    Layout: ``HLT1`` magic, lane header, one u64 bit length per lane,
    varint-coded anchor *deltas* (per lane, from 0), then the v1 tree
    bytes.  The whole blob is what Encr-Huffman encrypts in format v3.
    """
    deltas = np.concatenate(
        [np.diff(a, prepend=np.int64(0)) for a in table.anchors]
    ) if table.anchors else np.empty(0, np.int64)
    varints = intcodec.varint_encode(deltas) if deltas.size else b""
    return (
        _LANE_HEADER.pack(
            _LANE_MAGIC, table.n_lanes, table.anchor_stride, len(varints)
        )
        + table.lane_bits.astype("<i8").tobytes()
        + varints
        + serialize_tree(code)
    )


def deserialize_lane_tree(data: bytes, n_values: int) -> tuple[HuffmanCode, LaneTable]:
    """Parse a v2 tree section back into ``(code, lane_table)``.

    Validates every structural invariant of the lane table — lane
    count, bit lengths, anchor monotonicity and counts — so corrupted
    or tampered tables are rejected before the decode kernel runs.
    """
    if len(data) < _LANE_HEADER.size:
        raise ValueError("lane tree section shorter than its header")
    magic, n_lanes, stride, varint_len = _LANE_HEADER.unpack_from(data)
    if magic != _LANE_MAGIC:
        raise ValueError("bad lane-table magic; not a v3 tree section")
    if not 1 <= n_lanes <= MAX_LANES:
        raise ValueError(f"lane count {n_lanes} outside 1..{MAX_LANES}")
    if n_values and n_lanes > n_values:
        raise ValueError("lane table has more lanes than symbols")
    if stride < 1:
        raise ValueError("anchor stride must be positive")
    off = _LANE_HEADER.size
    if len(data) < off + 8 * n_lanes + varint_len:
        raise ValueError("truncated lane table")
    lane_bits = np.frombuffer(data, dtype="<i8", offset=off, count=n_lanes).astype(
        np.int64
    )
    if lane_bits.min() < 0:
        raise ValueError("negative lane bit length")
    off += 8 * n_lanes
    counts = _anchor_counts(n_values, n_lanes, stride)
    deltas = intcodec.varint_decode(
        data[off : off + varint_len], int(counts.sum())
    )
    off += varint_len
    if deltas.size and deltas.min() < 1:
        raise ValueError("lane anchor deltas must be positive")
    anchors = [
        np.cumsum(d, dtype=np.int64)
        for d in np.split(deltas, np.cumsum(counts)[:-1])
    ]
    # Every anchor must lie inside its lane; a running sum that wrapped
    # past int64 shows up as a non-positive anchor.
    flat = np.concatenate(anchors)
    if ((flat < 1) | (flat >= np.repeat(lane_bits, counts))).any():
        raise ValueError("lane anchor beyond the lane bitstream")
    code = deserialize_tree(data[off:])
    table = LaneTable(
        n_lanes=n_lanes,
        anchor_stride=stride,
        lane_bits=lane_bits,
        anchors=tuple(anchors),
    )
    return code, table


def _table_digest(symbols: np.ndarray, lengths: np.ndarray) -> bytes:
    """Digest of a canonical table — equivalent to hashing the
    serialized tree (lengths + symbols fully determine it), without
    paying the varint re-serialization per call."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(symbols).tobytes())
    h.update(np.ascontiguousarray(lengths).tobytes())
    return h.digest()


#: The decoder cache: parsed trees' codes, keyed by table digest; an
#: LRU bounded by entry count and by the bytes of the tables its codes
#: hold.  The derived state per entry is at most 1.4 MB for the
#: stand-in fields (decode tables of 0.26-1.35 MB at small and medium,
#: 1e-2..1e-6), so the bounds still let daemon-style workloads with
#: many distinct error bounds all hit.  A deliberately deep tree can
#: force a decode table of up to ``2^16 + 2^24`` int32 entries (67 MB):
#: a code over the whole byte budget is not kept at all, so one hostile
#: frame neither pins that memory nor flushes the other codes.
_CODEC_CACHE_SIZE = 64
_CODEC_CACHE_MAX_BYTES = 64 << 20
_codec_cache: OrderedDict[bytes, HuffmanCode] = OrderedDict()
_codec_cache_lock = threading.Lock()
#: Sum of the cached codes' ``_charged`` bytes (under the lock).
_codec_cache_bytes = 0


def _codec_cache_fit(grown: HuffmanCode) -> None:
    """Charge ``grown``'s current table bytes to the cache, then evict
    least-recently-used codes until at most :data:`_CODEC_CACHE_SIZE`
    remain, holding at most :data:`_CODEC_CACHE_MAX_BYTES`.  Called on
    insert and whenever a code builds a table; a code the cache does
    not hold is left alone, and one over the whole budget leaves the
    cache."""
    global _codec_cache_bytes
    with _codec_cache_lock:
        if _codec_cache.get(grown._digest) is not grown:
            return  # never cached, evicted already, or lost an insert race
        size = grown._nbytes()
        _codec_cache_bytes += size - grown._charged
        grown._charged = size
        if size > _CODEC_CACHE_MAX_BYTES:
            del _codec_cache[grown._digest]
            _codec_cache_bytes -= size
        while (len(_codec_cache) > _CODEC_CACHE_SIZE
               or _codec_cache_bytes > _CODEC_CACHE_MAX_BYTES):
            _, oldest = _codec_cache.popitem(last=False)
            _codec_cache_bytes -= oldest._charged


def codec_from_table(symbols: np.ndarray, lengths: np.ndarray) -> HuffmanCode:
    """The code for a parsed ``(symbols, lengths)`` table, from the
    process-wide decoder cache.

    The table is hashed here, once per parse.  A hit returns the cached
    code, so a repeat decode of one tree skips the canonical-codeword
    recomputation and reuses the decode table already built.
    """
    digest = _table_digest(symbols, lengths)
    with _codec_cache_lock:
        code = _codec_cache.get(digest)
        if code is not None:
            _codec_cache.move_to_end(digest)
            trace.count("huffman.codec_cache_hits")
            return code
    trace.count("huffman.codec_cache_misses")
    code = HuffmanCode(symbols, lengths, _canonical_codewords(lengths))
    with _codec_cache_lock:
        existing = _codec_cache.get(digest)
        if existing is not None:
            # Raced with another thread: keep the first instance so its
            # lazily built tables stay shared.
            _codec_cache.move_to_end(digest)
            return existing
        code._digest = digest
        _codec_cache[digest] = code
    _codec_cache_fit(code)
    return code


def codec_cache_clear() -> None:
    """Drop every cached code (tests and fixture regeneration)."""
    global _codec_cache_bytes
    with _codec_cache_lock:
        _codec_cache.clear()
        _codec_cache_bytes = 0


#: From this many symbols up, :func:`decode` sends a single stream
#: through the lane kernel by self-synchronization
#: (:func:`repro.sz.fastdecode.decode_stream`); shorter streams take
#: the scalar loop, whose fixed cost per call is far lower.  Set at the
#: measured crossover: from 16,384 symbols every serve stand-in decoded
#: faster through the kernel (1.1-1.6x at 1-2 bits per symbol, 2.7x
#: and more above), at 12,288 the lowest-entropy ones did not, and
#: LZ7H's streams (60-4,449 symbols) decoded 14x slower through it.
SELF_SYNC_MIN_VALUES = 1 << 14


def decode(packed: PackedBits, code: HuffmanCode, n_values: int) -> np.ndarray:
    """Decode exactly ``n_values`` symbols that end exactly at
    ``packed.n_bits``; raises ``ValueError`` otherwise.

    Both routes accept the same streams: long ones go through the lane
    kernel (:data:`SELF_SYNC_MIN_VALUES`), short ones through the
    scalar loop.
    """
    return code.symbols.take(decode_ranks(packed, code, n_values))


def decode_ranks(packed: PackedBits, code: HuffmanCode, n_values: int) -> np.ndarray:
    """:func:`decode` as symbol ranks: int32 positions in
    ``code.symbols``, the form both routes produce and the SZ reader
    gathers its residuals by."""
    if n_values >= SELF_SYNC_MIN_VALUES:
        from repro.sz import fastdecode  # fastdecode imports this module

        return fastdecode.decode_stream(packed, code, n_values)
    if n_values == 0:
        if packed.n_bits:
            raise ValueError("huffman bitstream does not end at n_bits")
        return np.empty(0, dtype=np.int32)
    return _scan_ranks(code, packed, n_values)


def _scan_ranks(
    code: HuffmanCode, packed: PackedBits, n_values: int, start: int = 0
) -> np.ndarray:
    """The scalar loop: decode ``n_values`` symbol ranks (int32) from
    bit ``start`` of ``packed``, one decode-table lookup per codeword
    (two for a code longer than the table's root).  The last codeword
    must end exactly at ``packed.n_bits``; a Kraft hole, or a chain
    that ends anywhere else, raises ``ValueError``.

    The table is read through a ``memoryview``, never copied: a hostile
    deep tree makes it tens of MB, which a stream of a few hundred
    symbols must not pay for.  Hot loop notes: the bit buffer is a
    plain int that refills eight bytes per ``int.from_bytes`` call and
    is trimmed to its live bits only on refill.  The stream gets eight
    zero bytes of padding, so a refill never straddles its end and a
    lookup always sees ``max_len`` bits; a chain that overran into the
    padding fails the final bit-count check.
    """
    tab, root_bits, max_len = code.decode_table()
    view = memoryview(tab)
    # Every lookup lands in the table: a root window has root_bits
    # bits, and each link points at a whole sub-table after the root.
    if len(view) < 1 << root_bits:
        raise ValueError("decode table shorter than its root")
    root_mask = (1 << root_bits) - 1
    sub_mask = (1 << (max_len - root_bits)) - 1
    data = packed.data + bytes(8)
    # Bits above buf_len are spent; lookups mask them off, and the
    # refill trims them.  So entering mid-byte just counts the start
    # byte's leading bits as spent.
    pos = (start >> 3) + 8
    buf = int.from_bytes(data[pos - 8 : pos], "big")
    buf_len = 64 - (start & 7)
    out = [0] * n_values
    for i in range(n_values):
        if buf_len < max_len:
            buf = ((buf & ((1 << buf_len) - 1)) << 64) | int.from_bytes(
                data[pos : pos + 8], "big"
            )
            pos += 8
            buf_len += 64
        entry = view[(buf >> (buf_len - root_bits)) & root_mask]
        if entry < 0:  # a sub-table link
            entry = view[((buf >> (buf_len - max_len)) & sub_mask) - entry]
        ln = entry & 31
        if not ln:
            raise ValueError("corrupt huffman bitstream: Kraft hole")
        buf_len -= ln
        out[i] = entry >> 5
    # Every bit read so far, less the ones still buffered.
    if 8 * pos - buf_len != packed.n_bits:
        raise ValueError("huffman bitstream does not end at n_bits")
    return np.array(out, dtype=np.int32)
