"""SZ's predictors, operating exactly on the quantized integer grid.

Three predictor families, matching the paper's description of SZ
(Sec. II-A): the classical **Lorenzo** predictor, the
**mean-integrated Lorenzo** variant (approximating clustered data by a
fixed value), and per-block **linear regression**.

Working on the grid (int64 indices ``q``) rather than on decompressed
floats is what makes everything vectorizable *and* exact:

* The N-d Lorenzo residual is precisely the composition of first
  differences along every axis (with zero ghost layers), and the
  inverse is the composition of cumulative sums.  Both run over
  cache-sized slabs of axis-0 planes; a slab's axis-0 difference reads
  the plane before it, and the inverse carries the last reconstructed
  plane of one slab into the next.
* The mean predictor is a constant (the modal grid value), so residual
  and reconstruction are elementwise.
* Regression predicts from transmitted per-block plane coefficients;
  both sides evaluate the same float32 coefficients through the same
  float64 sum (:func:`regression_predict_planes`), so encoder and
  decoder agree bit-for-bit.

The encoder never holds a whole residual array.  Selection is
sample-first, like SZ's: every candidate is scored on its residuals at
the strided sample points alone (:func:`predict_sampled`,
:func:`select_predictor`), and the winner's residuals are then made one
slab at a time (:func:`residual_slabs`) for the code map.  The
decoder's way back is one slab-wise pass, :func:`reconstruct`: Huffman
symbol ranks to residuals, through the inverse predictor, to the output
field.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core import trace
from repro.sz import blocks as blk
from repro.sz import quantizer

__all__ = [
    "PREDICTORS",
    "modal_value",
    "RegressionModel",
    "regression_fit",
    "regression_predict_planes",
    "residual_slabs",
    "sample_stride",
    "estimate_code_entropy",
    "Prediction",
    "predict_sampled",
    "select_predictor",
    "reconstruct",
]

#: Registry of predictor names (wire ids are their indices).
PREDICTORS = ("lorenzo", "mean", "regression")


# ---------------------------------------------------------------------------
# Mean-integrated (modal constant) predictor
# ---------------------------------------------------------------------------

def modal_value(q: np.ndarray, *, sample_limit: int = 65536) -> int:
    """The most frequent grid value in (a sample of) ``q``.

    SZ's mean-integrated Lorenzo replaces prediction with a fixed value
    when most of the data clusters tightly around it; on the grid, that
    fixed value is simply the mode.
    """
    flat = np.ravel(q)
    if flat.size == 0:
        return 0
    flat = flat[:: sample_stride(flat.size, sample_limit)]
    values, counts = np.unique(flat, return_counts=True)
    return int(values[np.argmax(counts)])


# ---------------------------------------------------------------------------
# Per-block linear regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressionModel:
    """Per-block plane-fit coefficients for a blocked domain.

    ``coefficients`` has shape ``(n_blocks, ndim + 1)`` (intercept plus
    one slope per axis) in float32 — the representation transmitted in
    the stream ("compress regression coefficients", Algorithm 1).
    """

    shape: tuple[int, ...]
    block_size: int
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        expected = blk.n_blocks(self.shape, self.block_size)
        if self.coefficients.shape != (expected, len(self.shape) + 1):
            raise ValueError(
                f"expected ({expected}, {len(self.shape) + 1}) coefficients, "
                f"got {self.coefficients.shape}"
            )


def _design_pinv(block_shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix X and its pseudo-inverse for one block shape.

    X rows are ``(1, i0, i1, ...)`` over the block's local coordinates;
    the fit for a block with values y is ``coef = pinv @ y``.
    """
    grids = np.meshgrid(*[np.arange(s, dtype=np.float64) for s in block_shape],
                        indexing="ij")
    cols = [np.ones(int(np.prod(block_shape)))] + [g.ravel() for g in grids]
    x = np.stack(cols, axis=1)
    pinv = np.linalg.pinv(x)
    return x, pinv


def regression_fit(q: np.ndarray, block_size: int) -> RegressionModel:
    """Fit a plane per block (vectorized over all blocks at once).

    The fit is one matmul over the whole float64 block matrix
    (:func:`~repro.sz.blocks.block_matrix`, 8 bytes per padded point):
    BLAS may sum a block's values in an order that depends on the
    matrix's row count (OpenBLAS does for chunks under 512 rows), so a
    fit over chunks of blocks could change the coefficients and with
    them the frame.
    """
    q = np.asarray(q)
    _, pinv = _design_pinv((block_size,) * q.ndim)
    coefs = blk.block_matrix(q, block_size) @ pinv.T  # (n_blocks, ndim+1)
    return RegressionModel(
        shape=q.shape,
        block_size=block_size,
        coefficients=coefs.astype(np.float32),
    )


def regression_predict_planes(model: RegressionModel, lo: int,
                              hi: int) -> np.ndarray:
    """The unrounded float64 prediction of axis-0 planes ``lo:hi``.

    Each point's block row ``c`` is evaluated as ``c0 + c1·l0 + c2·l1
    + ...`` over its local block coordinates ``l``, summed left to
    right.  Every product is a float32 coefficient times a small
    integer, exact in float64, so only the sums round.  The planes'
    coefficient rows, shaped ``(planes, g1, 1, g2, 1, ...)`` over the
    block grid, take one local axis at a time by broadcasting, so the
    sum grows to the blocks' full ``(planes, g1, bs, g2, bs, ...)``
    layout in its last step alone.  Returns a ``(hi - lo, *shape[1:])``
    view of the padded planes.
    """
    bs = model.block_size
    shape = model.shape
    grid = [s // bs for s in blk.padded_shape(shape, bs)]
    ndim = len(shape)
    planes = np.arange(lo, hi)
    rows = model.coefficients.reshape(*grid, ndim + 1)[planes // bs]
    coarse = (hi - lo,) + tuple(n for g in grid[1:] for n in (g, 1))

    def column(j: int) -> np.ndarray:
        return rows[..., j].astype(np.float64).reshape(coarse)

    pred = column(0) + column(1) * (planes % bs).reshape(
        (-1,) + (1,) * (2 * ndim - 2)
    )
    for axis in range(1, ndim):
        local = [1] * (2 * ndim - 1)
        local[2 * axis] = bs
        pred = pred + column(axis + 1) * np.arange(bs).reshape(local)
    pred = pred.reshape((hi - lo,) + tuple(g * bs for g in grid[1:]))
    return pred[(slice(None),) + tuple(slice(0, s) for s in shape[1:])]


# ---------------------------------------------------------------------------
# Residuals, slab by slab
# ---------------------------------------------------------------------------

def residual_slabs(q: np.ndarray, name: str, *,
                   model: RegressionModel | None = None,
                   modal: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """The residuals of ``q`` under predictor ``name``, one slab of
    whole axis-0 planes at a time.

    Yields ``(offset, residuals)``: the flat C-order residuals of the
    points from ``offset`` on, about
    :data:`~repro.sz.quantizer.SLAB_POINTS` of them (one plane if a
    plane is larger), in one int64 buffer every slab reuses.  Regression
    needs ``model``, mean its ``modal`` value.

    For 3-D, Lorenzo's residual is ``q[i,j,k] - (q[i-1,j,k] + q[i,j-1,k]
    + q[i,j,k-1] - q[i-1,j-1,k] - q[i-1,j,k-1] - q[i,j-1,k-1] +
    q[i-1,j-1,k-1])`` with zero ghost values outside the domain — the
    classic 7-point stencil.  A slab computes it as a separable first
    difference per axis: the axis-0 difference against the plane
    before the slab, then the differences along the other axes in
    place.  Regression subtracts the rounded
    :func:`regression_predict_planes` of the slab's planes.
    """
    if name not in PREDICTORS:
        raise ValueError(f"unknown predictor {name!r}")
    q = np.asarray(q, dtype=np.int64)
    if q.size == 0:
        return
    planes = q.shape[0]
    plane = q.size // planes
    step = max(1, quantizer.SLAB_POINTS // plane)
    buf = np.empty((min(step, planes),) + q.shape[1:], dtype=np.int64)
    for lo in range(0, planes, step):
        hi = min(lo + step, planes)
        slab = buf[: hi - lo]
        if name == "mean":
            np.subtract(q[lo:hi], np.int64(modal), out=slab)
        elif name == "regression":
            np.copyto(slab, np.rint(regression_predict_planes(model, lo, hi)),
                      casting="unsafe")
            np.subtract(q[lo:hi], slab, out=slab)
        else:
            _lorenzo_slab(q, lo, hi, slab)
        yield lo * plane, slab.reshape(-1)


def _lorenzo_slab(q: np.ndarray, lo: int, hi: int, slab: np.ndarray) -> None:
    """Lorenzo residuals of planes ``lo:hi`` into ``slab``."""
    if lo:
        np.subtract(q[lo:hi], q[lo - 1 : hi - 1], out=slab)
    else:
        slab[0] = q[0]
        np.subtract(q[1:hi], q[: hi - 1], out=slab[1:])
    for axis in range(1, q.ndim):
        later = [slice(None)] * q.ndim
        earlier = [slice(None)] * q.ndim
        later[axis] = slice(1, None)
        earlier[axis] = slice(None, -1)
        # NumPy buffers the overlapping operand, so this is the
        # difference of the values before the call.
        np.subtract(slab[tuple(later)], slab[tuple(earlier)],
                    out=slab[tuple(later)])


# ---------------------------------------------------------------------------
# Sampling-based predictor selection
# ---------------------------------------------------------------------------

def sample_stride(n: int, sample_limit: int = 65536) -> int:
    """Stride of the sample selection reads: ``flat[::stride]`` keeps
    every point up to ``sample_limit`` and about ``sample_limit`` above.

    :func:`~repro.sz.quantizer.choose_radius` and
    :func:`estimate_code_entropy` sample with this stride too, and a
    sample of at most ``2·sample_limit`` points resamples at stride 1,
    so either reads the same points from a sample as from the whole
    residual array.
    """
    return n // sample_limit if n > sample_limit else 1


def estimate_code_entropy(residuals: np.ndarray, radius: int,
                          *, sample_limit: int = 65536,
                          unpredictable_penalty_bits: float = 40.0) -> float:
    """Estimated bits/point of the quantization codes for ``residuals``.

    Shannon entropy of the clipped-residual histogram on a sample, with
    an additional charge per unpredictable point (sentinel code plus
    the byte-plane side channel) — the same cost model SZ's sampling
    step approximates by trial compression.
    """
    flat = np.ravel(residuals)
    if flat.size == 0:
        return 0.0
    flat = flat[:: sample_stride(flat.size, sample_limit)]
    trace.count("predict.sample_points", flat.size)
    unpred = np.abs(flat) >= radius
    frac_unpred = float(unpred.mean())
    clipped = flat[~unpred]
    if clipped.size == 0:
        return unpredictable_penalty_bits
    _, counts = quantizer.code_histogram(clipped + radius)
    p = counts / clipped.size
    entropy = float(-(p * np.log2(p)).sum())
    return (1.0 - frac_unpred) * entropy + frac_unpred * unpredictable_penalty_bits


#: Estimated cost of one unpredictable point, in bits, per predictor.
#: Lorenzo must ship the raw out-of-range residual (byte planes);
#: mean/regression ship the verbatim float32, whose redundant
#: sign/exponent/high-mantissa planes the final zlib stage compresses.
UNPREDICTABLE_COST_BITS = {"lorenzo": 38.0, "mean": 22.0, "regression": 22.0}


class Prediction(NamedTuple):
    """A predictor's residuals at the sample points plus the side info
    its frame carries."""

    name: str
    #: Residuals at the flat indices ``0, stride, 2·stride, ...``.
    sample: np.ndarray
    model: RegressionModel | None = None
    modal: int = 0


def predict_sampled(q: np.ndarray, name: str, block_size: int,
                    stride: int) -> Prediction:
    """The predictor ``name`` on ``q``, with residuals only at the flat
    indices ``0, stride, 2·stride, ...`` of ``q``.

    Mean takes its modal value and regression fits every block; then one
    pass of :func:`residual_slabs` keeps the sampled points alone, so the
    sample holds exactly the residuals the code map reads there.  The
    pass evaluates regression at ~5 ns a point, against ~140 ns to
    gather one sampled point's block row (medium nyx, 1e-4), so it is
    the cheaper way to a sample up to a stride of about 25 and costs
    one more pass over the grid beyond that.
    """
    modal = modal_value(q) if name == "mean" else 0
    model = regression_fit(q, block_size) if name == "regression" else None
    sample = np.empty(-(-np.size(q) // stride), dtype=np.int64)
    for offset, residuals in residual_slabs(q, name, model=model, modal=modal):
        first = -offset % stride
        kept = residuals[first::stride]
        at = (offset + first) // stride
        sample[at : at + kept.size] = kept
    return Prediction(name, sample, model=model, modal=modal)


def select_predictor(q: np.ndarray, radius: int, block_size: int,
                     candidates: tuple[str, ...] = PREDICTORS,
                     *, lorenzo: Prediction | None = None) -> Prediction:
    """Pick the cheapest predictor by sampled entropy estimate.

    Mirrors SZ's "sampling approach to pick the best predictor among
    classical Lorenzo, mean-integrated Lorenzo and linear regression"
    (paper Sec. II-A).  Ties go to the earlier candidate, i.e. Lorenzo.
    Every candidate is evaluated at the :func:`sample_stride` points
    alone (:func:`predict_sampled`) and scored there by
    :func:`estimate_code_entropy`; ``lorenzo`` passes in the Lorenzo
    sample the caller already has.  The winner keeps its sample, fit
    and modal value.
    """
    stride = sample_stride(int(np.size(q)))

    def scored(name: str) -> tuple[float, Prediction]:
        if name == "lorenzo" and lorenzo is not None:
            cand = lorenzo
        else:
            cand = predict_sampled(q, name, block_size, stride)
        return estimate_code_entropy(
            cand.sample, radius,
            unpredictable_penalty_bits=UNPREDICTABLE_COST_BITS[name],
        ), cand

    # min() over a lazy map holds only the best candidate so far.
    return min(map(scored, candidates), key=lambda pair: pair[0])[1]


# ---------------------------------------------------------------------------
# Decoding: symbol ranks to the output field
# ---------------------------------------------------------------------------

def reconstruct(ranks: np.ndarray, table: np.ndarray, shape: tuple[int, ...],
                name: str, eb: float, dtype: np.dtype, *,
                sentinel: int | None = None,
                unpredictable: np.ndarray | None = None,
                model: RegressionModel | None = None) -> np.ndarray:
    """Invert quantization and the predictor ``name`` into the field.

    ``ranks`` are the Huffman decoder's symbol ranks in C order and
    ``table[rank]`` is that symbol's residual (``code - radius``; mean
    folds its modal value in, so its grid value).  ``sentinel`` is the
    rank of code 0, the unpredictable marker, or ``None`` if the code
    has none.  ``unpredictable`` holds, in C order of the sentinels,
    Lorenzo's out-of-range residuals, or for mean and regression the
    verbatim values in ``dtype``.  ``model`` is regression's fit.

    One pass walks slabs of whole axis-0 planes, about
    :data:`~repro.sz.quantizer.SLAB_POINTS` points each, in one reused
    int64 buffer: gather the residuals, invert the predictor in place
    (Lorenzo: a cumulative sum per axis, with the previous slab's last
    plane carried in as plane 0; regression: add the rounded
    :func:`regression_predict_planes` of the slab, the encoder's own
    prediction), and write ``q·2eb`` straight into the output.  The
    result equals the whole-array chain bit for bit: integer sums wrap
    alike in any order, and each value makes the same int64 → float64
    → ``dtype`` roundings as :func:`~repro.sz.quantizer.grid_reconstruct`.

    Raises
    ------
    ValueError
        If the stream's sentinel count differs from
        ``unpredictable.size``.
    """
    if unpredictable is None:
        unpredictable = np.empty(0, dtype=np.int64)
    if sentinel is None and unpredictable.size:
        raise _unpredictable_mismatch(0, unpredictable.size)
    out = np.empty(shape, dtype=dtype)
    if out.size == 0:
        return out
    ranks = np.ravel(ranks)
    step = 2.0 * eb
    plane = out.size // shape[0]
    per = max(1, quantizer.SLAB_POINTS // plane)
    # Plane 0 of the buffer carries the last plane of the slab before.
    buf = np.zeros((min(per, shape[0]) + 1,) + tuple(shape[1:]), dtype=np.int64)
    index = np.empty(buf[1:].size, dtype=np.int64)
    flat_out = out.reshape(-1)
    no_hits = np.empty(0, dtype=np.intp)
    taken = 0
    for lo in range(0, shape[0], per):
        hi = min(lo + per, shape[0])
        a, b = lo * plane, hi * plane
        g = buf[1 : hi - lo + 1]
        flat = g.reshape(-1)
        np.copyto(index[: b - a], ranks[a:b])
        np.take(table, index[: b - a], out=flat, mode="clip")
        hits = (np.flatnonzero(ranks[a:b] == sentinel) if sentinel is not None
                else no_hits)
        stored = unpredictable[taken : taken + hits.size]
        if stored.size < hits.size:
            raise _unpredictable_mismatch(
                int(np.count_nonzero(ranks == sentinel)), unpredictable.size
            )
        taken += hits.size
        if name == "lorenzo":
            flat[hits] = stored
            for axis in range(1, len(shape)):
                _cumsum_in_place(g, axis)
            _cumsum_in_place(buf[: hi - lo + 1], 0)
            buf[0] = buf[hi - lo]
        elif name == "regression":
            g += np.rint(regression_predict_planes(model, lo, hi)).astype(np.int64)
        np.multiply(g, step, out=out[lo:hi], casting="unsafe")
        if name != "lorenzo":
            flat_out[a + hits] = stored
    if taken != unpredictable.size:
        raise _unpredictable_mismatch(taken, unpredictable.size)
    return out


def _cumsum_in_place(a: np.ndarray, axis: int) -> None:
    """``np.cumsum(a, axis=axis, out=a)``.  NumPy accumulates with
    ``axis`` as its inner loop, one call per element of the blocks
    after it, so a short axis ahead of wide blocks (the slab's few
    planes, or a 4-D field's second axis) runs as one vectorized add
    per index instead."""
    n = a.shape[axis]
    if 8 * n > math.prod(a.shape[axis + 1:]):
        np.cumsum(a, axis=axis, out=a)
        return
    steps = np.moveaxis(a, axis, 0)
    for i in range(1, n):
        np.add(steps[i], steps[i - 1], out=steps[i])


def _unpredictable_mismatch(in_stream: int, stored: int) -> ValueError:
    return ValueError(
        f"stream has {in_stream} unpredictable points but "
        f"{stored} stored residuals"
    )
