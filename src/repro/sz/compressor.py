"""The SZ-1.4 compressor façade.

:class:`SZCompressor` runs the four-stage pipeline and returns an
:class:`SZFrame`: a set of *named byte sections* plus statistics.  The
sections are exactly the units the paper's three schemes transform:

========== =====================================================
``meta``   decode parameters (dims, dtype, bound, predictor, ...)
``tree``   lane/anchor table + serialized Huffman tree
           — Encr-Huffman's target (tree *and* lane table)
``codes``  Huffman lane bitstreams        ┐ with ``tree``:
``unpred`` unpredictable residual channel │ the "quantization
``coeffs`` regression coefficients        ┘ array" of Encr-Quant
``exact``  verbatim floats for sub-ulp-bound points
========== =====================================================

The frame is *pre-lossless*: schemes interpose AES on their sections
and then hand everything to :mod:`repro.sz.lossless`/the container.
Plain SZ (no encryption) is ``scheme="none"`` in
:class:`repro.core.pipeline.SecureCompressor`.

Every stage is a span on the ``tracer`` (a leaf of the
``sz.compress`` / ``sz.decompress`` tree) — the same spans drive the
paper's Fig. 7 time breakdown and the Tables III–V overhead studies.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.core import trace
from repro.sz import fastdecode, huffman, ieee754, intcodec, predictors, quantizer
from repro.sz.bitstream import PackedBits, concat_streams
from repro.sz.quantizer import ErrorBound

__all__ = [
    "SZCompressor", "SZFrame", "CompressionStats", "SECTION_ORDER",
    "decode_codes",
]

#: Canonical section order inside a serialized stream.
SECTION_ORDER = ("meta", "tree", "codes", "unpred", "coeffs", "exact", "aux")

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_DTYPE_FROM_CODE = {v: k for k, v in _DTYPE_CODES.items()}

# meta layout: magic, version, dtype, predictor, flags, ndim,
# block_size, radius, eb, modal, n_codes_bits, n_unpredictable, then
# ndim dims.  The flags byte was historically "bound_mode" (0 = direct
# abs/rel, 1 = pw_rel); it is now a bitfield whose known bits are
# below — the two legacy values are unchanged, so default-path frames
# are byte-identical and old readers reject flagged frames cleanly.
_META = struct.Struct("<4sBBBBBBIdqQQ")
#: Grid stage ran on log2|x|; the aux section carries signs/zeros.
_FLAG_PW_REL = 0x01
#: Every Huffman code length fits ``huffman.DEPTH_LIMIT_BITS`` bits, so
#: every lookup resolves in the lane decode table's root.  No current
#: writer sets it; readers accept it and enforce the promise.
_FLAG_DEPTH_LIMITED = 0x02
_KNOWN_FLAGS = _FLAG_PW_REL | _FLAG_DEPTH_LIMITED
_META_MAGIC = b"SZfr"
#: v3 frames carry a multi-lane Huffman stream: the ``tree`` section is
#: a lane/anchor table followed by the serialized code table, and the
#: ``codes`` section concatenates byte-aligned lane bitstreams.  The
#: meta struct layout itself is unchanged since v2 (``n_codes_bits``
#: holds the total over all lanes), so old readers fail cleanly on the
#: version byte and new readers decode both.
_META_VERSION = 3
_META_MIN_VERSION = 2


@dataclass
class CompressionStats:
    """Per-compression statistics (drives Figs. 2–4 and EXPERIMENTS.md)."""

    n_elements: int
    eb_abs: float
    predictor: str
    radius: int
    unpredictable_count: int
    section_bytes: dict[str, int]
    #: Points stored verbatim because no grid value meets the bound in
    #: the output dtype (nonzero only when eb is below the data's ulp).
    exact_count: int = 0
    #: Distinct quantization codes, i.e. the Huffman alphabet size.
    n_symbols: int = 0

    @property
    def predictable_count(self) -> int:
        return self.n_elements - self.unpredictable_count

    @property
    def predictable_fraction(self) -> float:
        """Fraction of points the predictor captured (Fig. 2/3)."""
        if self.n_elements == 0:
            return 0.0
        return self.predictable_count / self.n_elements

    @property
    def quant_array_bytes(self) -> int:
        """Huffman tree + codewords = the paper's "quantization array"."""
        return self.section_bytes["tree"] + self.section_bytes["codes"]

    @property
    def tree_fraction_of_quant(self) -> float:
        """Serialized-tree share of the quantization array (Fig. 4)."""
        denom = self.quant_array_bytes
        return self.section_bytes["tree"] / denom if denom else 0.0


@dataclass
class SZFrame:
    """Named byte sections plus stats; input to the scheme layer."""

    sections: dict[str, bytes]
    stats: CompressionStats

    def __post_init__(self) -> None:
        missing = set(SECTION_ORDER) - set(self.sections)
        if missing:
            raise ValueError(f"frame is missing sections: {sorted(missing)}")

    @property
    def payload_bytes(self) -> int:
        """Total pre-lossless size of all sections."""
        return sum(len(v) for v in self.sections.values())


class SZCompressor:
    """Error-bounded lossy compressor (SZ-1.4 pipeline).

    Parameters
    ----------
    error_bound:
        Either an :class:`~repro.sz.quantizer.ErrorBound` or a float
        (interpreted as an absolute bound, the paper's mode).
    predictor:
        ``"auto"`` (sampling-based selection, SZ's behaviour) or one of
        ``"lorenzo"``, ``"mean"``, ``"regression"``.
    block_size:
        Regression block edge length (SZ-2 uses 6; we default to 8 for
        power-of-two reshapes).
    coverage:
        Target fraction of residuals the adaptive quantization radius
        must cover; the remainder becomes unpredictable data.
    huffman_lanes:
        Lane count for the interleaved Huffman stream.  ``"auto"``
        scales with the *coded* size (1 lane per ~32 KB of codes, up
        to 16) and falls back to the legacy v2 single-stream frame —
        zero format overhead — when the whole coded payload is under
        32 KB.  More lanes mean more independent entry points for the
        vectorized decode kernel at the cost of a few padding bytes
        per lane.  Setting an explicit count always writes the v3
        multi-lane frame.
    anchor_stride:
        Codewords per decode segment (``"auto"`` places an anchor per
        ~512 coded bytes, keeping the table at ~0.3 % of the codes
        section).  Smaller strides widen the decode kernel's vectors
        but grow the anchor table.

    Examples
    --------
    >>> import numpy as np
    >>> comp = SZCompressor(error_bound=1e-3)
    >>> field = np.linspace(0, 1, 4096, dtype=np.float32).reshape(16, 16, 16)
    >>> frame = comp.compress(field)
    >>> out = comp.decompress(frame)
    >>> bool(np.max(np.abs(out.astype(np.float64) - field)) <= 1e-3 * 1.0001)
    True
    """

    def __init__(
        self,
        error_bound: ErrorBound | float = 1e-3,
        *,
        predictor: str = "auto",
        block_size: int = 8,
        coverage: float = 0.995,
        huffman_lanes: int | str = "auto",
        anchor_stride: int | str = "auto",
    ) -> None:
        if isinstance(error_bound, (int, float)):
            error_bound = ErrorBound(value=float(error_bound), mode="abs")
        self.error_bound = error_bound
        if predictor != "auto" and predictor not in predictors.PREDICTORS:
            raise ValueError(f"unknown predictor {predictor!r}")
        self.predictor = predictor
        if block_size < 2:
            raise ValueError("block_size must be at least 2")
        self.block_size = block_size
        self.coverage = coverage
        if huffman_lanes != "auto" and not 1 <= int(huffman_lanes) <= huffman.MAX_LANES:
            raise ValueError(f"huffman_lanes must be 'auto' or 1..{huffman.MAX_LANES}")
        self.huffman_lanes = huffman_lanes
        if anchor_stride != "auto" and int(anchor_stride) < 1:
            raise ValueError("anchor_stride must be 'auto' or positive")
        self.anchor_stride = anchor_stride

    def _lane_params(self, n_values: int, total_bits: int) -> tuple[int, int]:
        """Resolve the (possibly ``"auto"``) lane count and stride."""
        auto_lanes, auto_stride = huffman.choose_lane_params(n_values, total_bits)
        lanes = auto_lanes if self.huffman_lanes == "auto" else int(self.huffman_lanes)
        stride = auto_stride if self.anchor_stride == "auto" else int(self.anchor_stride)
        return max(1, min(lanes, n_values)), stride

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------

    def compress(
        self, data: np.ndarray, tracer: trace.Tracer | None = None
    ) -> SZFrame:
        """Run predict → quantize → Huffman and return the frame.

        ``tracer``, when given, records a ``sz.compress`` span tree
        with one leaf per stage.
        """
        data = np.ascontiguousarray(data)
        if data.dtype not in _DTYPE_CODES:
            raise TypeError(f"unsupported dtype {data.dtype}; use float32/float64")
        if data.ndim < 1 or data.ndim > 4:
            raise ValueError(f"expected 1-4 dimensional data, got ndim={data.ndim}")
        if data.size == 0:
            raise ValueError("cannot compress an empty array")
        out_dtype = data.dtype
        tr = tracer or trace.NULL_TRACER

        with tr.span("sz.compress", bytes_in=data.nbytes) as sz_span:
            with tr.span("quantize", bytes_in=data.nbytes):
                eb = self.error_bound.resolve(data)
                if self.error_bound.mode == "pw_rel":
                    work, aux_bytes = _pwrel_forward(data)
                else:
                    work, aux_bytes = data, b""
                q, exact_idx = quantizer.grid_quantize_verified(work, eb)
            data = work

            with tr.span("predict") as sp:
                pred = self._predict(q)
                radius = quantizer.choose_radius(
                    pred.sample, coverage=self.coverage
                )
                coded = quantizer.codes_from_residuals(
                    predictors.residual_slabs(
                        q, pred.name, model=pred.model, modal=pred.modal
                    ),
                    q.size, radius,
                )
                # The grid was the one whole-grid array; from here on
                # the encoder reads the uint16 codes.
                del q
                sp.annotate(predictor=pred.name, radius=radius)

            with tr.span("huffman_build") as sp:
                code = huffman.build_code(coded.symbols, coded.counts)
                n_symbols = int(coded.symbols.size)
                sp.annotate(n_symbols=n_symbols)

            with tr.span("huffman_encode") as sp:
                total_bits = int(
                    (coded.counts * code.lengths.astype(np.int64)).sum()
                )
                auto_format = (self.huffman_lanes == "auto"
                               and self.anchor_stride == "auto")
                if auto_format and total_bits < huffman.LANE_FORMAT_MIN_BITS:
                    # Small coded payload: the lane/anchor table would
                    # be a visible overhead and the kernel gains
                    # nothing, so emit the legacy v2 single-stream
                    # frame (byte-identical to the pre-lane format, and
                    # still decoded by every reader).
                    packed = huffman.encode(coded.codes, code)
                    tree_bytes = huffman.serialize_tree(code)
                    codes_bytes = packed.data
                    n_code_bits = packed.n_bits
                    frame_version = 2
                    sp.annotate(frame_version=2, lanes=1)
                else:
                    n_lanes, stride = self._lane_params(
                        coded.codes.size, total_bits
                    )
                    enc = huffman.encode_lanes(coded.codes, code, n_lanes, stride)
                    tree_bytes = huffman.serialize_lane_tree(code, enc.table)
                    codes_bytes = concat_streams(list(enc.lanes))
                    n_code_bits = enc.n_bits
                    frame_version = 3
                    sp.annotate(frame_version=3, lanes=n_lanes,
                                anchor_stride=stride)
                sp.bytes_out = len(codes_bytes)

            with tr.span("side_channels") as sp:
                # Channel format per predictor: the Lorenzo chain is
                # inverted by cumulative sums, which need a residual at
                # *every* point, so Lorenzo stores the out-of-range
                # residual integers.  The mean/regression predictors
                # decode pointwise, so unpredictable points are stored
                # as verbatim floats (SZ-1.4's representation) and
                # scattered straight into the output.
                if pred.name == "lorenzo":
                    unpred_bytes = intcodec.byteplane_encode(coded.outliers)
                else:
                    unpred_bytes = ieee754.ieee754_encode(
                        np.ravel(data)[coded.unpredictable]
                    )
                coeff_bytes = (
                    ieee754.ieee754_encode(pred.model.coefficients)
                    if pred.model is not None
                    else b""
                )
                exact_bytes = _pack_exact(
                    exact_idx, np.ravel(data)[exact_idx]
                )
                sp.bytes_out = len(unpred_bytes) + len(coeff_bytes) + len(
                    exact_bytes
                )
            sz_span.bytes_out = (
                len(tree_bytes) + len(codes_bytes) + len(unpred_bytes)
                + len(coeff_bytes) + len(exact_bytes) + len(aux_bytes)
            )

        n_unpred = int(coded.unpredictable.size)
        meta = self._pack_meta(
            data, out_dtype, eb, pred.name, radius, pred.modal,
            n_code_bits, n_unpred, frame_version,
        )
        sections = {
            "meta": meta,
            "tree": tree_bytes,
            "codes": codes_bytes,
            "unpred": unpred_bytes,
            "coeffs": coeff_bytes,
            "exact": exact_bytes,
            "aux": aux_bytes,
        }
        stats = CompressionStats(
            n_elements=int(data.size),
            eb_abs=eb,
            predictor=pred.name,
            radius=radius,
            unpredictable_count=n_unpred,
            section_bytes={k: len(v) for k, v in sections.items()},
            exact_count=int(exact_idx.size),
            n_symbols=n_symbols,
        )
        return SZFrame(sections=sections, stats=stats)

    def _predict(self, q: np.ndarray) -> predictors.Prediction:
        """The predictor (selected first if auto) at the sample points
        :func:`~repro.sz.quantizer.choose_radius` reads."""
        stride = predictors.sample_stride(q.size)
        if self.predictor != "auto":
            return predictors.predict_sampled(
                q, self.predictor, self.block_size, stride
            )
        lorenzo = predictors.predict_sampled(q, "lorenzo", self.block_size,
                                             stride)
        probe_radius = quantizer.choose_radius(lorenzo.sample,
                                               coverage=self.coverage)
        return predictors.select_predictor(
            q, probe_radius, self.block_size, lorenzo=lorenzo
        )

    def _pack_meta(
        self,
        data: np.ndarray,
        out_dtype: np.dtype,
        eb: float,
        predictor_name: str,
        radius: int,
        modal: int,
        n_code_bits: int,
        n_unpred: int,
        version: int = _META_VERSION,
    ) -> bytes:
        flags = _FLAG_PW_REL if self.error_bound.mode == "pw_rel" else 0
        head = _META.pack(
            _META_MAGIC,
            version,
            _DTYPE_CODES[out_dtype],
            predictors.PREDICTORS.index(predictor_name),
            flags,
            data.ndim,
            self.block_size,
            radius,
            eb,
            modal,
            n_code_bits,
            n_unpred,
        )
        dims = struct.pack(f"<{data.ndim}Q", *data.shape)
        return head + dims

    # ------------------------------------------------------------------
    # Decompression
    # ------------------------------------------------------------------

    @staticmethod
    def parse_meta(meta: bytes) -> dict:
        """Decode the ``meta`` section into a plain dict."""
        if len(meta) < _META.size:
            raise ValueError("meta section shorter than its fixed header")
        (
            magic,
            version,
            dtype_code,
            predictor_id,
            bound_mode,
            ndim,
            block_size,
            radius,
            eb,
            modal,
            n_bits,
            n_unpred,
        ) = _META.unpack_from(meta)
        if magic != _META_MAGIC:
            raise ValueError("bad frame magic; not an SZ frame")
        if not _META_MIN_VERSION <= version <= _META_VERSION:
            raise ValueError(f"unsupported frame version {version}")
        if dtype_code not in _DTYPE_FROM_CODE:
            raise ValueError(f"unknown dtype code {dtype_code}")
        if predictor_id >= len(predictors.PREDICTORS):
            raise ValueError(f"unknown predictor id {predictor_id}")
        expect = _META.size + 8 * ndim
        if len(meta) != expect:
            raise ValueError(f"meta section is {len(meta)} bytes, expected {expect}")
        if bound_mode & ~_KNOWN_FLAGS:
            raise ValueError(f"unknown meta flags 0x{bound_mode:02x}")
        shape = struct.unpack_from(f"<{ndim}Q", meta, _META.size)
        return {
            "version": version,
            "dtype": _DTYPE_FROM_CODE[dtype_code],
            "pw_rel": bool(bound_mode & _FLAG_PW_REL),
            "depth_limited": bool(bound_mode & _FLAG_DEPTH_LIMITED),
            "predictor": predictors.PREDICTORS[predictor_id],
            "block_size": block_size,
            "radius": int(radius),
            "eb": eb,
            "modal": modal,
            "n_bits": n_bits,
            "n_unpredictable": n_unpred,
            "shape": tuple(int(s) for s in shape),
        }

    def decompress(self, frame: SZFrame,
                   tracer: trace.Tracer | None = None) -> np.ndarray:
        """Invert :meth:`compress`; returns the error-bounded field.

        ``tracer``, when given, records a ``sz.decompress`` span tree:
        ``huffman_decode`` turns the codes section into one stream of
        symbol ranks, and ``reconstruct`` maps them slab by slab
        through the inverse predictor into the output field
        (:func:`repro.sz.predictors.reconstruct`).
        """
        tr = tracer or trace.NULL_TRACER
        info = self.parse_meta(frame.sections["meta"])
        shape = info["shape"]

        with tr.span("sz.decompress", frame_version=info["version"],
                     predictor=info["predictor"]) as dz_span:
            with tr.span("huffman_decode",
                         bytes_in=len(frame.sections["codes"])) as sp:
                code, ranks, lanes = decode_codes(frame.sections, info)
                sp.annotate(lanes=lanes)

            with tr.span("reconstruct"):
                work_dtype = (np.dtype(np.float64) if info["pw_rel"]
                              else info["dtype"])
                name = info["predictor"]
                if name == "lorenzo":
                    unpred = intcodec.byteplane_decode(frame.sections["unpred"])
                else:
                    unpred = ieee754.ieee754_decode(
                        frame.sections["unpred"]
                    ).astype(work_dtype, copy=False)
                if unpred.size != info["n_unpredictable"]:
                    raise ValueError(
                        "unpredictable channel does not match meta"
                    )
                # Residual per symbol rank; mean folds its constant in.
                table = code.symbols - np.int64(info["radius"])
                if name == "mean":
                    table += np.int64(info["modal"])
                model = None
                if name == "regression":
                    coefs = ieee754.ieee754_decode(frame.sections["coeffs"])
                    model = predictors.RegressionModel(
                        shape=shape,
                        block_size=info["block_size"],
                        coefficients=coefs.reshape(-1, len(shape) + 1),
                    )
                zero = np.flatnonzero(code.symbols == 0)
                out = predictors.reconstruct(
                    ranks, table, shape, name, info["eb"], work_dtype,
                    sentinel=int(zero[0]) if zero.size else None,
                    unpredictable=unpred, model=model,
                )
                del ranks  # before the pw_rel inverse's output exists
                exact_idx, exact_vals = _unpack_exact(
                    frame.sections["exact"], work_dtype
                )
                if exact_idx.size:
                    if int(exact_idx.max()) >= out.size:
                        raise ValueError("exact channel index out of range")
                    out.reshape(-1)[exact_idx] = exact_vals
                if info["pw_rel"]:
                    out = _pwrel_inverse(out, frame.sections["aux"],
                                         info["dtype"])
            dz_span.bytes_out = out.nbytes
        return out


def decode_codes(
    sections: dict[str, bytes], info: dict
) -> tuple[huffman.HuffmanCode, np.ndarray, int]:
    """The ``codes`` section as symbol ranks: ``(code, ranks, lanes)``.

    ``info`` is the frame's parsed meta.  v3 frames decode lane by lane
    through the lane table, whose bit count must match the meta; v2
    frames carry one stream and a bare tree.  Either way the tree must
    keep the meta's depth-limited promise.  ``code.symbols[ranks]`` are
    the quantization codes, 0 at every unpredictable point.
    """
    n_elements = int(np.prod(info["shape"]))
    if info["version"] >= 3:
        code, lane_table = huffman.deserialize_lane_tree(
            sections["tree"], n_elements
        )
        if int(lane_table.lane_bits.sum()) != info["n_bits"]:
            raise ValueError("lane table bit count does not match meta")
        _check_depth_flag(info, code)
        ranks = fastdecode.decode_lanes(
            sections["codes"], code, lane_table, n_elements
        )
        return code, ranks, int(lane_table.lane_bits.size)
    code = huffman.deserialize_tree(sections["tree"])
    _check_depth_flag(info, code)
    packed = PackedBits(data=sections["codes"], n_bits=info["n_bits"])
    return code, huffman.decode_ranks(packed, code, n_elements), 1


def _check_depth_flag(info: dict, code: huffman.HuffmanCode) -> None:
    """Reject a frame whose depth-limited flag lies about its tree.

    The flag is a format-level promise that every code length fits
    ``huffman.DEPTH_LIMIT_BITS`` bits; a deeper tree under the flag
    means the meta or tree section was tampered with or corrupted.
    """
    if info["depth_limited"] and int(code.lengths.max()) > huffman.DEPTH_LIMIT_BITS:
        raise ValueError(
            "depth-limited frame carries a code deeper than "
            f"{huffman.DEPTH_LIMIT_BITS} bits"
        )


def _pwrel_forward(data: np.ndarray) -> tuple[np.ndarray, bytes]:
    """Map values to log2-magnitude space for point-wise-relative mode.

    Returns the float64 working array (``log2 |x|``; zeros receive a
    placeholder below the smallest real value so they stay cheap to
    code) and the packed ``aux`` section recording signs and exact-zero
    positions.
    """
    x = np.ravel(np.asarray(data, dtype=np.float64))
    zeros = x == 0.0
    signs = np.signbit(np.asarray(data)).reshape(-1)
    y = np.empty_like(x)
    nonzero = ~zeros
    y[nonzero] = np.log2(np.abs(x[nonzero]))
    filler = (y[nonzero].min() - 4.0) if nonzero.any() else 0.0
    y[zeros] = filler
    aux = (
        struct.pack("<Q", x.size)
        + np.packbits(signs.astype(np.uint8)).tobytes()
        + np.packbits(zeros.astype(np.uint8)).tobytes()
    )
    return y.reshape(np.asarray(data).shape), aux


def _pwrel_inverse(y: np.ndarray, aux: bytes, dtype: np.dtype) -> np.ndarray:
    """Invert :func:`_pwrel_forward`: ``x = ±2^y``, zeros restored.

    Runs over :data:`~repro.sz.quantizer.SLAB_POINTS`-point slabs (a
    multiple of 8, so each slab starts on a byte of both bit planes)
    straight into the ``dtype`` output; every value is computed and
    cast exactly as the whole-array inverse does.
    """
    if len(aux) < 8:
        raise ValueError("pw_rel aux section shorter than its header")
    (n,) = struct.unpack_from("<Q", aux)
    if y.size != n:
        raise ValueError("pw_rel aux section does not match the data size")
    plane = (n + 7) // 8
    if len(aux) != 8 + 2 * plane:
        raise ValueError("truncated pw_rel aux section")
    signs = np.frombuffer(aux, dtype=np.uint8, offset=8, count=plane)
    zeros = np.frombuffer(aux, dtype=np.uint8, offset=8 + plane, count=plane)
    out = np.empty(y.shape, dtype=dtype)
    flat_y, flat_out = np.ravel(y), out.reshape(-1)
    for lo in range(0, n, quantizer.SLAB_POINTS):
        hi = min(lo + quantizer.SLAB_POINTS, n)
        bits = slice(lo // 8, -(-hi // 8))
        mag = np.exp2(flat_y[lo:hi].astype(np.float64, copy=False))
        x = np.where(np.unpackbits(signs[bits], count=hi - lo).astype(bool),
                     -mag, mag)
        x[np.unpackbits(zeros[bits], count=hi - lo).astype(bool)] = 0.0
        flat_out[lo:hi] = x
    return out


def _pack_exact(indices: np.ndarray, values: np.ndarray) -> bytes:
    """Serialize the verbatim-value channel: delta-coded sorted flat
    indices (byte planes) followed by the raw values."""
    indices = np.asarray(indices, dtype=np.int64)
    deltas = np.diff(indices, prepend=np.int64(0))
    pos = intcodec.byteplane_encode(deltas)
    return struct.pack("<Q", len(pos)) + pos + np.ascontiguousarray(values).tobytes()


def _unpack_exact(data: bytes, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`_pack_exact`."""
    if len(data) < 8:
        raise ValueError("exact channel shorter than its header")
    (pos_len,) = struct.unpack_from("<Q", data)
    if len(data) < 8 + pos_len:
        raise ValueError("truncated exact channel")
    deltas = intcodec.byteplane_decode(data[8 : 8 + pos_len])
    indices = np.cumsum(deltas).astype(np.int64)
    values = np.frombuffer(data, dtype=dtype, offset=8 + pos_len)
    if values.size != indices.size:
        raise ValueError("exact channel indices and values do not align")
    return indices, values
