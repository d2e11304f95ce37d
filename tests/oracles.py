"""Reference implementations the fast paths of ``repro.sz`` and
``repro.crypto`` replaced.

Each function here is the original, simpler code a faster one took
over from, kept outside ``src/`` as a differential-test oracle: the
``tests/sz/*_diff.py`` and ``tests/crypto`` suites and
``benchmarks/bench_huffman_lanes.py`` demand exact equality with it.
None of it runs on a production path.

* :func:`huffman_lengths_ref` — the heapq tree build
  (``huffman._huffman_lengths`` is the two-queue build);
* :func:`pack_codes_ref` — the byte-per-bit packer
  (``bitstream.pack_codes`` is the word-packed kernel);
* :func:`decode_ranks_ref` — a table-free, bit-serial canonical
  decoder (``huffman.decode_ranks``'s scalar loop and the
  ``fastdecode`` lane kernel both walk the packed two-level table);
* :func:`residuals_from_codes`, :func:`lorenzo_reconstruct`,
  :func:`mean_reconstruct`, :func:`pwrel_inverse_ref` and
  :func:`decompress_ref` — the whole-array SZ reader
  (``SZCompressor.decompress`` is the slab-wise one,
  ``predictors.reconstruct``);
* :func:`lorenzo_residuals_ref`, :func:`predict_ref`,
  :func:`select_predictor_ref` and :func:`compress_ref` — the
  whole-grid SZ writer: every candidate's residuals over the full grid,
  int64 codes, ``np.unique`` histogram (``SZCompressor.compress`` keeps
  the grid, samples and ``uint16`` codes, ``predictors.residual_slabs``
  and ``quantizer.codes_from_residuals``);
* :func:`pad_to_blocks`, :func:`block_view`, :func:`unblock_view`,
  :func:`crop`, :func:`regression_predict` and
  :func:`regression_predict_at` — the padded block layout, and the
  regression prediction by one full-grid matmul and point by point
  (``blocks.block_matrix`` fills the fit's matrix from the unpadded
  grid, ``predictors.regression_predict_planes`` evaluates slabs);
* :func:`unpack_bits` — a packed stream as one byte per bit;
* :func:`encrypt_block` and :func:`decrypt_block` — one AES-128 block
  each way: the CBC chain kernel on a zero chain, and the plain
  state-matrix inverse cipher of FIPS-197 5.3 (CBC decryption and CTR
  run on the batched engine, ``repro.crypto.batch``).
"""

from __future__ import annotations

import heapq
import math
import struct
from typing import NamedTuple

import numpy as np

from repro.crypto.block import BLOCK_BYTES, cbc_encrypt_words
from repro.crypto.keyschedule import ROUNDS, ExpandedKey
from repro.crypto.sbox import INV_SBOX, MUL9, MUL11, MUL13, MUL14
from repro.sz import compressor as szc
from repro.sz import blocks, fastdecode, huffman, ieee754, intcodec, predictors, quantizer
from repro.sz.bitstream import PackedBits, _check_code_table, concat_streams

__all__ = [
    "huffman_lengths_ref",
    "pack_codes_ref",
    "decode_ranks_ref",
    "residuals_from_codes",
    "lorenzo_reconstruct",
    "mean_reconstruct",
    "decode_codes_ref",
    "pwrel_inverse_ref",
    "decompress_ref",
    "pad_to_blocks",
    "block_view",
    "unblock_view",
    "crop",
    "regression_predict",
    "regression_predict_at",
    "lorenzo_residuals_ref",
    "PredictionRef",
    "predict_ref",
    "select_predictor_ref",
    "compress_ref",
    "unpack_bits",
    "SHIFT_ROWS",
    "INV_SHIFT_ROWS",
    "encrypt_block",
    "decrypt_block",
]


def huffman_lengths_ref(freqs: np.ndarray) -> np.ndarray:
    """Optimal prefix-code lengths via the classic heap construction.

    The heap's pop order *defines* the tie-breaking the two-queue build
    must reproduce for frames to stay bit-identical.
    """
    n = len(freqs)
    if n == 1:
        return np.array([1], dtype=np.int64)
    # Heap items: (freq, tiebreak, node_id).  Internal nodes get ids >= n.
    heap = [(int(f), i, i) for i, f in enumerate(freqs)]
    heapq.heapify(heap)
    parent = np.full(2 * n - 1, -1, dtype=np.int64)
    next_id = n
    while len(heap) > 1:
        f1, _, a = heapq.heappop(heap)
        f2, _, b = heapq.heappop(heap)
        parent[a] = next_id
        parent[b] = next_id
        heapq.heappush(heap, (f1 + f2, next_id, next_id))
        next_id += 1
    depths = np.zeros(2 * n - 1, dtype=np.int64)
    # Nodes were created bottom-up, so walking ids top-down lets every
    # child read its parent's already-final depth.
    for node in range(next_id - 2, -1, -1):
        depths[node] = depths[parent[node]] + 1
    return depths[:n]


def pack_codes_ref(codes: np.ndarray, lengths: np.ndarray) -> PackedBits:
    """Reference bit-plane packer (the original ``pack_codes``).

    ``O(max_len)`` vectorized passes — pass ``b`` scatters bit ``b`` of
    every codeword long enough to have one — at the cost of one byte
    per output *bit* of peak memory.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    _check_code_table(codes, lengths)
    if codes.size == 0:
        return PackedBits(data=b"", n_bits=0)

    ends = np.cumsum(lengths)
    total_bits = int(ends[-1])
    starts = ends - lengths

    bits = np.zeros(total_bits, dtype=np.uint8)
    max_len = int(lengths.max())
    for b in range(max_len):
        mask = lengths > b
        # Bit b (from the MSB side) of each surviving codeword.
        shift = (lengths[mask] - 1 - b).astype(np.uint64)
        bits[starts[mask] + b] = ((codes[mask] >> shift) & np.uint64(1)).astype(
            np.uint8
        )
    return PackedBits(data=np.packbits(bits).tobytes(), n_bits=total_bits)


def decode_ranks_ref(packed: PackedBits, code: huffman.HuffmanCode,
                     n_values: int) -> np.ndarray:
    """Decode ``n_values`` symbol ranks (int32 positions in
    ``code.symbols``) one bit at a time, from the canonical first code
    and count per length alone.

    Codes of one length are consecutive canonical codewords, and every
    extension of a shorter codeword lies below that length's first
    code.  So a prefix of ``l`` bits that no shorter code matched is
    the codeword of rank ``first[l] <= v < first[l] + count[l]`` or no
    codeword of that length.  A prefix that matches at no length up to
    the longest is a Kraft hole.  Raises ``ValueError`` on a hole, on
    a codeword cut by ``packed.n_bits``, and when the last codeword
    does not end exactly there.
    """
    if n_values and not code.n_symbols:
        raise ValueError("cannot decode with an empty code")
    lengths = code.lengths.astype(np.int64)
    max_len = int(lengths.max()) if lengths.size else 0
    count = np.bincount(lengths, minlength=max_len + 1).tolist()
    # Symbol positions in canonical (length, position) order.
    canonical = np.argsort(lengths, kind="stable").tolist()
    first = [0] * (max_len + 1)  # first codeword of each length
    index = [0] * (max_len + 1)  # its place in canonical order
    for ln in range(1, max_len + 1):
        first[ln] = (first[ln - 1] + count[ln - 1]) << 1
        index[ln] = index[ln - 1] + count[ln - 1]
    bits = np.unpackbits(
        np.frombuffer(packed.data, dtype=np.uint8)
    )[: packed.n_bits].tolist()
    pos = 0
    ranks = []
    for _ in range(n_values):
        v = 0
        for ln in range(1, max_len + 1):
            if pos == len(bits):
                raise ValueError("huffman bitstream ended mid-codeword")
            v = (v << 1) | bits[pos]
            pos += 1
            if 0 <= v - first[ln] < count[ln]:
                ranks.append(canonical[index[ln] + v - first[ln]])
                break
        else:
            raise ValueError("corrupt huffman bitstream: Kraft hole")
    if pos != len(bits):
        raise ValueError("huffman bitstream does not end at n_bits")
    return np.array(ranks, dtype=np.int32)


def residuals_from_codes(codes: np.ndarray, radius: int,
                         unpredictable_residuals: np.ndarray) -> np.ndarray:
    """Invert ``quantizer.codes_from_residuals``.

    ``unpredictable_residuals`` supplies, in C order of the sentinel
    positions, the residual values that did not fit the radius.
    """
    codes = np.asarray(codes, dtype=np.int64)
    sentinel = codes == 0
    n_unpred = int(sentinel.sum())
    if unpredictable_residuals.size != n_unpred:
        raise ValueError(
            f"stream has {n_unpred} unpredictable points but "
            f"{unpredictable_residuals.size} stored residuals"
        )
    residuals = codes - np.int64(radius)
    if n_unpred:
        residuals[sentinel] = unpredictable_residuals
    return residuals


def lorenzo_reconstruct(residuals: np.ndarray) -> np.ndarray:
    """Invert ``predictors.lorenzo_residuals`` (cumulative sum per axis)."""
    q = np.asarray(residuals, dtype=np.int64)
    for axis in range(q.ndim):
        q = np.cumsum(q, axis=axis, dtype=np.int64)
    return q


def mean_reconstruct(residuals: np.ndarray, mode: int) -> np.ndarray:
    """Invert ``predictors.mean_residuals``."""
    return np.asarray(residuals, dtype=np.int64) + np.int64(mode)


def decode_codes_ref(frame: szc.SZFrame) -> np.ndarray:
    """The frame's quantization codes as symbol values, in C order."""
    info = szc.SZCompressor.parse_meta(frame.sections["meta"])
    n = int(np.prod(info["shape"]))
    if info["version"] >= 3:
        code, table = huffman.deserialize_lane_tree(frame.sections["tree"], n)
        ranks = fastdecode.decode_lanes(frame.sections["codes"], code, table, n)
        return code.symbols[ranks]
    code = huffman.deserialize_tree(frame.sections["tree"])
    packed = PackedBits(data=frame.sections["codes"], n_bits=info["n_bits"])
    return huffman.decode(packed, code, n)


def decompress_ref(frame: szc.SZFrame) -> np.ndarray:
    """The whole-array SZ reader: codes → residuals → inverse predictor
    → ``grid_reconstruct``, then the verbatim, exact and pw_rel
    channels, each over the full field."""
    info = szc.SZCompressor.parse_meta(frame.sections["meta"])
    shape = info["shape"]
    flat_codes = decode_codes_ref(frame)
    work_dtype = np.dtype(np.float64) if info["pw_rel"] else info["dtype"]
    name = info["predictor"]
    n_unpred = info["n_unpredictable"]
    if name == "lorenzo":
        unpred_res = intcodec.byteplane_decode(frame.sections["unpred"])
        verbatim = None
    else:
        unpred_res = np.zeros(n_unpred, dtype=np.int64)  # placeholder
        verbatim = ieee754.ieee754_decode(frame.sections["unpred"])
        if verbatim.dtype != work_dtype:
            verbatim = verbatim.astype(work_dtype)
    if (verbatim.size if verbatim is not None else unpred_res.size) != n_unpred:
        raise ValueError("unpredictable channel does not match meta")
    residuals = residuals_from_codes(
        flat_codes, info["radius"], unpred_res
    ).reshape(shape)
    if name == "lorenzo":
        q = lorenzo_reconstruct(residuals)
    elif name == "mean":
        q = mean_reconstruct(residuals, info["modal"])
    else:
        coefs = ieee754.ieee754_decode(frame.sections["coeffs"])
        model = predictors.RegressionModel(
            shape=shape,
            block_size=info["block_size"],
            coefficients=coefs.reshape(-1, len(shape) + 1),
        )
        q = residuals + regression_predict(model)
    out = quantizer.grid_reconstruct(q, info["eb"], work_dtype)
    if verbatim is not None and n_unpred:
        out.reshape(-1)[np.ravel(flat_codes == 0)] = verbatim
    exact_idx, exact_vals = szc._unpack_exact(frame.sections["exact"], work_dtype)
    if exact_idx.size:
        out.reshape(-1)[exact_idx] = exact_vals
    if info["pw_rel"]:
        out = pwrel_inverse_ref(out, frame.sections["aux"], info["dtype"])
    return out


def pwrel_inverse_ref(y: np.ndarray, aux: bytes, dtype: np.dtype) -> np.ndarray:
    """The whole-array pw_rel inverse, ``x = ±2^y`` with zeros restored
    (``compressor._pwrel_inverse`` runs it slab by slab)."""
    if len(aux) < 8:
        raise ValueError("pw_rel aux section shorter than its header")
    (n,) = struct.unpack_from("<Q", aux)
    if y.size != n:
        raise ValueError("pw_rel aux section does not match the data size")
    plane = (n + 7) // 8
    if len(aux) != 8 + 2 * plane:
        raise ValueError("truncated pw_rel aux section")
    signs = np.unpackbits(
        np.frombuffer(aux, dtype=np.uint8, offset=8, count=plane)
    )[:n].astype(bool)
    zeros = np.unpackbits(
        np.frombuffer(aux, dtype=np.uint8, offset=8 + plane, count=plane)
    )[:n].astype(bool)
    mag = np.exp2(np.ravel(y).astype(np.float64))
    out = np.where(signs, -mag, mag)
    out[zeros] = 0.0
    return out.reshape(y.shape).astype(dtype)


# ---------------------------------------------------------------------------
# The padded block layout and the full-grid regression prediction
# ---------------------------------------------------------------------------

def pad_to_blocks(data: np.ndarray, block_size: int) -> np.ndarray:
    """Edge-replicate ``data`` up to a block-multiple shape."""
    target = blocks.padded_shape(data.shape, block_size)
    pad = [(0, t - s) for s, t in zip(data.shape, target)]
    if all(p == (0, 0) for p in pad):
        return data
    return np.pad(data, pad, mode="edge")


def block_view(padded: np.ndarray, block_size: int) -> np.ndarray:
    """Reshape a padded array to ``(n_blocks, block_size**ndim)``:
    blocks C-ordered over the block grid, elements C-ordered within a
    block (the layout :func:`unblock_view` inverts)."""
    ndim = padded.ndim
    for axis, s in enumerate(padded.shape):
        if s % block_size:
            raise ValueError(f"axis {axis} size {s} not a block multiple")
    split_shape: list[int] = []
    for s in padded.shape:
        split_shape.extend([s // block_size, block_size])
    order = list(range(0, 2 * ndim, 2)) + list(range(1, 2 * ndim, 2))
    arr = padded.reshape(split_shape).transpose(order)
    return arr.reshape(-1, block_size**ndim)


def unblock_view(blocked: np.ndarray, target_shape: tuple[int, ...],
                 block_size: int) -> np.ndarray:
    """Invert :func:`block_view` back to ``target_shape`` (padded)."""
    ndim = len(target_shape)
    grid = [s // block_size for s in target_shape]
    if blocked.shape != (math.prod(grid), block_size**ndim):
        raise ValueError(
            f"blocked array {blocked.shape} does not tile {target_shape} "
            f"with block size {block_size}"
        )
    arr = blocked.reshape(grid + [block_size] * ndim)
    order: list[int] = []
    for axis in range(ndim):
        order.extend([axis, ndim + axis])
    return arr.transpose(order).reshape(target_shape)


def crop(data: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Crop a padded array back to the original ``shape``."""
    return data[tuple(slice(0, s) for s in shape)]


def regression_predict(model: predictors.RegressionModel) -> np.ndarray:
    """Predicted grid values (int64, rounded) for the full domain: the
    float32 coefficients times the block design matrix in one matmul,
    unblocked and cropped."""
    ndim = len(model.shape)
    x, _ = predictors._design_pinv((model.block_size,) * ndim)
    pred_blocks = model.coefficients.astype(np.float64) @ x.T
    padded = blocks.padded_shape(model.shape, model.block_size)
    pred = crop(unblock_view(pred_blocks, padded, model.block_size),
                model.shape)
    return np.rint(pred).astype(np.int64)


def regression_predict_at(model: predictors.RegressionModel,
                          flat_idx: np.ndarray) -> np.ndarray:
    """:func:`regression_predict` at the C-order flat indices
    ``flat_idx``, each point's block row gathered and summed as
    ``c0 + c1·l0 + c2·l1 + ...`` left to right."""
    bs = model.block_size
    coords = np.unravel_index(flat_idx, model.shape)
    grid = blocks.padded_shape(model.shape, bs)
    block = np.zeros(np.shape(flat_idx), dtype=np.int64)
    for axis, i in enumerate(coords):
        block = block * (grid[axis] // bs) + i // bs
    coefs = model.coefficients.astype(np.float64)[block]
    pred = coefs[:, 0].copy()
    for axis, i in enumerate(coords):
        pred += coefs[:, axis + 1] * (i % bs)
    return np.rint(pred).astype(np.int64)


# ---------------------------------------------------------------------------
# The whole-grid SZ writer
# ---------------------------------------------------------------------------

def lorenzo_residuals_ref(q: np.ndarray) -> np.ndarray:
    """Lorenzo residuals as one ``np.diff`` per axis over the grid."""
    r = np.asarray(q, dtype=np.int64)
    for axis in range(r.ndim):
        r = np.diff(r, axis=axis, prepend=np.int64(0))
    return r


class PredictionRef(NamedTuple):
    """A predictor's residuals over the whole grid, and its side info."""

    name: str
    residuals: np.ndarray
    model: predictors.RegressionModel | None = None
    modal: int = 0


def predict_ref(q: np.ndarray, name: str, block_size: int) -> PredictionRef:
    """The residuals of ``q`` under ``name`` over the whole grid."""
    q = np.asarray(q, dtype=np.int64)
    if name == "lorenzo":
        return PredictionRef(name, lorenzo_residuals_ref(q))
    if name == "mean":
        modal = predictors.modal_value(q)
        return PredictionRef(name, q - np.int64(modal), modal=modal)
    if name == "regression":
        model = predictors.regression_fit(q, block_size)
        return PredictionRef(name, q - regression_predict(model), model=model)
    raise ValueError(f"unknown predictor {name!r}")


def select_predictor_ref(q: np.ndarray, radius: int,
                         block_size: int) -> PredictionRef:
    """Every candidate over the full grid, then each residual array
    scored on its sample; ties go to the earlier candidate."""
    best = None
    for name in predictors.PREDICTORS:
        cand = predict_ref(q, name, block_size)
        cost = predictors.estimate_code_entropy(
            cand.residuals, radius,
            unpredictable_penalty_bits=predictors.UNPREDICTABLE_COST_BITS[name],
        )
        if best is None or cost < best[0]:
            best = (cost, cand)
    return best[1]


def compress_ref(comp: szc.SZCompressor, data: np.ndarray) -> szc.SZFrame:
    """``comp.compress(data)`` the whole-grid way: full residual arrays
    for the selection and the radius, int64 codes from ``np.where``,
    the ``np.unique`` histogram and an encode of the int64 codes."""
    data = np.ascontiguousarray(data)
    eb = comp.error_bound.resolve(data)
    if comp.error_bound.mode == "pw_rel":
        work, aux_bytes = szc._pwrel_forward(data)
    else:
        work, aux_bytes = data, b""
    q, exact_idx = quantizer.grid_quantize_verified(work, eb)
    if comp.predictor == "auto":
        probe = quantizer.choose_radius(lorenzo_residuals_ref(q),
                                        coverage=comp.coverage)
        pred = select_predictor_ref(q, probe, comp.block_size)
    else:
        pred = predict_ref(q, comp.predictor, comp.block_size)
    radius = quantizer.choose_radius(pred.residuals, coverage=comp.coverage)
    unpred = np.abs(pred.residuals) >= radius
    codes = np.ravel(np.where(unpred, np.int64(0), pred.residuals + radius))
    symbols, counts = np.unique(codes, return_counts=True)
    code = huffman.build_code(symbols, counts)
    total_bits = int((counts * code.lengths.astype(np.int64)).sum())
    if (comp.huffman_lanes == comp.anchor_stride == "auto"
            and total_bits < huffman.LANE_FORMAT_MIN_BITS):
        packed = huffman.encode(codes, code)
        tree, payload, n_bits, version = (huffman.serialize_tree(code),
                                          packed.data, packed.n_bits, 2)
    else:
        lanes, stride = comp._lane_params(codes.size, total_bits)
        enc = huffman.encode_lanes(codes, code, lanes, stride)
        tree, payload, n_bits, version = (
            huffman.serialize_lane_tree(code, enc.table),
            concat_streams(list(enc.lanes)), enc.n_bits, 3,
        )
    n_unpred = int(unpred.sum())
    sections = {
        "meta": comp._pack_meta(work, data.dtype, eb, pred.name, radius,
                                pred.modal, n_bits, n_unpred, version),
        "tree": tree,
        "codes": payload,
        "unpred": (intcodec.byteplane_encode(pred.residuals[unpred])
                   if pred.name == "lorenzo"
                   else ieee754.ieee754_encode(work[unpred])),
        "coeffs": (ieee754.ieee754_encode(pred.model.coefficients)
                   if pred.model is not None else b""),
        "exact": szc._pack_exact(exact_idx, np.ravel(work)[exact_idx]),
        "aux": aux_bytes,
    }
    stats = szc.CompressionStats(
        n_elements=int(data.size), eb_abs=eb, predictor=pred.name,
        radius=radius, unpredictable_count=n_unpred,
        section_bytes={k: len(v) for k, v in sections.items()},
        exact_count=int(exact_idx.size), n_symbols=int(symbols.size),
    )
    return szc.SZFrame(sections=sections, stats=stats)


def unpack_bits(packed: PackedBits) -> np.ndarray:
    """Expand a :class:`PackedBits` back into a 0/1 ``uint8`` array."""
    if packed.n_bits == 0:
        return np.empty(0, dtype=np.uint8)
    bits = np.unpackbits(np.frombuffer(packed.data, dtype=np.uint8))
    return bits[: packed.n_bits]


#: ShiftRows as a flat-index permutation: ``out[i] = state[SHIFT_ROWS[i]]``
#: for the FIPS column-major byte layout (state[r][c] == flat[r + 4c]).
SHIFT_ROWS = tuple((i % 4) + 4 * (((i // 4) + (i % 4)) % 4) for i in range(16))
#: Inverse permutation for InvShiftRows.
INV_SHIFT_ROWS = tuple(SHIFT_ROWS.index(i) for i in range(16))


def encrypt_block(block: bytes, key: ExpandedKey) -> bytes:
    """Encrypt one 16-byte block: the chain kernel on a zero chain."""
    if len(block) != BLOCK_BYTES:
        raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
    return cbc_encrypt_words(list(struct.unpack(">4I", block)), key,
                             bytes(BLOCK_BYTES))


def _add_round_key(state: list[int], key: ExpandedKey, r: int) -> None:
    rk = struct.pack(">4I", *key.words[4 * r : 4 * r + 4])
    for i in range(BLOCK_BYTES):
        state[i] ^= rk[i]


def _inv_shift_rows(state: list[int]) -> list[int]:
    return [state[INV_SHIFT_ROWS[i]] for i in range(BLOCK_BYTES)]


def _inv_mix_columns(state: list[int]) -> list[int]:
    out = [0] * BLOCK_BYTES
    for c in range(4):
        s0, s1, s2, s3 = state[4 * c : 4 * c + 4]
        out[4 * c + 0] = MUL14[s0] ^ MUL11[s1] ^ MUL13[s2] ^ MUL9[s3]
        out[4 * c + 1] = MUL9[s0] ^ MUL14[s1] ^ MUL11[s2] ^ MUL13[s3]
        out[4 * c + 2] = MUL13[s0] ^ MUL9[s1] ^ MUL14[s2] ^ MUL11[s3]
        out[4 * c + 3] = MUL11[s0] ^ MUL13[s1] ^ MUL9[s2] ^ MUL14[s3]
    return out


def decrypt_block(block: bytes, key: ExpandedKey) -> bytes:
    """Decrypt one 16-byte block (straight inverse cipher, FIPS-197 5.3)."""
    if len(block) != BLOCK_BYTES:
        raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
    state = list(block)
    _add_round_key(state, key, ROUNDS)
    for r in range(ROUNDS - 1, 0, -1):
        state = _inv_shift_rows(state)
        state = [INV_SBOX[b] for b in state]
        _add_round_key(state, key, r)
        state = _inv_mix_columns(state)
    state = _inv_shift_rows(state)
    state = [INV_SBOX[b] for b in state]
    _add_round_key(state, key, 0)
    return bytes(state)
