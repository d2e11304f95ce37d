"""SZ's predictors, operating exactly on the quantized integer grid.

Three predictor families, matching the paper's description of SZ
(Sec. II-A): the classical **Lorenzo** predictor, the
**mean-integrated Lorenzo** variant (approximating clustered data by a
fixed value), and per-block **linear regression**.

Working on the grid (int64 indices ``q``) rather than on decompressed
floats is what makes everything vectorizable *and* exact:

* The N-d Lorenzo residual is precisely the composition of first
  differences along every axis (with zero ghost layers), so
  ``residuals = diff_axis0(diff_axis1(...))``, and the inverse is the
  composition of cumulative sums.  Both run over cache-sized slabs of
  axis-0 planes; the inverse carries the last reconstructed plane of
  one slab into the next.
* The mean predictor is a constant (the modal grid value), so residual
  and reconstruction are elementwise.
* Regression predicts from transmitted per-block plane coefficients;
  both sides round the same float32 coefficients through the same
  float64 expression, so encoder and decoder agree bit-for-bit.

Every predictor returns plain residual arrays; the quantizer decides
which residuals are unpredictable.  The decoder's way back is one
slab-wise pass, :func:`reconstruct`: Huffman symbol ranks to residuals,
through the inverse predictor, to the output field.  Selection is sample-first, like
SZ's: candidates are scored on a strided sample of their residuals,
and on large grids mean and regression are evaluated at the sampled
points alone, so only the winner is computed over the whole grid
(:func:`select_predictor`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core import trace
from repro.sz import blocks as blk
from repro.sz import quantizer

__all__ = [
    "PREDICTORS",
    "lorenzo_residuals",
    "modal_value",
    "mean_residuals",
    "RegressionModel",
    "regression_fit",
    "regression_predict",
    "regression_predict_at",
    "estimate_code_entropy",
    "Prediction",
    "predict",
    "predict_sampled",
    "select_predictor",
    "SAMPLE_SCORE_MIN_POINTS",
    "reconstruct",
]

#: Registry of predictor names (wire ids are their indices).
PREDICTORS = ("lorenzo", "mean", "regression")


# ---------------------------------------------------------------------------
# Lorenzo
# ---------------------------------------------------------------------------

def lorenzo_residuals(q: np.ndarray) -> np.ndarray:
    """N-dimensional Lorenzo residuals of a grid-index array.

    For 3-D this equals ``q[i,j,k] - (q[i-1,j,k] + q[i,j-1,k] + q[i,j,k-1]
    - q[i-1,j-1,k] - q[i-1,j,k-1] - q[i,j-1,k-1] + q[i-1,j-1,k-1])`` with
    zero ghost values outside the domain — the classic 7-point Lorenzo
    stencil, computed as a separable first difference per axis.

    The pass runs over slabs of whole planes along axis 0, about
    :data:`~repro.sz.quantizer.SLAB_POINTS` points each (one plane if a
    plane is larger): a slab takes its axis-0 difference against the
    plane before it, then the differences along the other axes in
    place, so it stays in cache and no full-size temporary is made.
    """
    q = np.asarray(q, dtype=np.int64)
    out = np.empty(q.shape, dtype=np.int64)
    if q.size == 0:
        return out
    planes = q.shape[0]
    step = max(1, quantizer.SLAB_POINTS // (q.size // planes))
    for lo in range(0, planes, step):
        hi = min(lo + step, planes)
        slab = out[lo:hi]
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
    return out



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
    flat = flat[:: _sample_stride(flat.size, sample_limit)]
    values, counts = np.unique(flat, return_counts=True)
    return int(values[np.argmax(counts)])


def mean_residuals(q: np.ndarray, mode: int) -> np.ndarray:
    """Residuals against the constant modal predictor."""
    return np.asarray(q, dtype=np.int64) - np.int64(mode)


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
    """Fit a plane per block (vectorized over all blocks at once)."""
    q = np.asarray(q)
    padded = blk.pad_to_blocks(q, block_size)
    # (n_blocks, bs^ndim), cast to float64 in the blocking copy.
    blocked = blk.block_view(padded, block_size, np.float64)
    _, pinv = _design_pinv((block_size,) * q.ndim)
    coefs = blocked @ pinv.T  # (n_blocks, ndim+1)
    return RegressionModel(
        shape=q.shape,
        block_size=block_size,
        coefficients=coefs.astype(np.float32),
    )


def regression_predict(model: RegressionModel) -> np.ndarray:
    """Predicted grid values (int64, rounded) for the full domain.

    Uses the float32 coefficients exactly as transmitted, so encoder
    and decoder compute identical predictions.
    """
    ndim = len(model.shape)
    x, _ = _design_pinv((model.block_size,) * ndim)
    coefs = model.coefficients.astype(np.float64)
    pred_blocks = coefs @ x.T  # (n_blocks, bs^ndim)
    padded_shape = blk.padded_shape(model.shape, model.block_size)
    pred = blk.unblock_view(pred_blocks, padded_shape, model.block_size)
    pred = blk.crop(pred, model.shape)
    return np.rint(pred).astype(np.int64)


def regression_predict_at(model: RegressionModel,
                          flat_idx: np.ndarray) -> np.ndarray:
    """:func:`regression_predict` at the C-order flat indices ``flat_idx``.

    Each point's block row ``c`` is evaluated as ``c0 + c1·l0 + c2·l1
    + ...`` over its local block coordinates ``l``, summed left to
    right as the matmul in :func:`regression_predict` accumulates.
    Every product is a float32 coefficient times a small integer, exact
    in float64, so the rounded sums and predictions match it bit for
    bit.
    """
    bs = model.block_size
    coords = np.unravel_index(flat_idx, model.shape)
    grid = blk.padded_shape(model.shape, bs)
    block = np.zeros(np.shape(flat_idx), dtype=np.int64)
    for axis, i in enumerate(coords):
        block = block * (grid[axis] // bs) + i // bs
    coefs = model.coefficients.astype(np.float64)[block]
    pred = coefs[:, 0].copy()
    for axis, i in enumerate(coords):
        pred += coefs[:, axis + 1] * (i % bs)
    return np.rint(pred).astype(np.int64)


# ---------------------------------------------------------------------------
# Sampling-based predictor selection
# ---------------------------------------------------------------------------

def _sample_stride(n: int, sample_limit: int = 65536) -> int:
    """Stride of the sample selection reads: ``flat[::stride]`` keeps
    every point up to ``sample_limit`` and about ``sample_limit`` above."""
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
    flat = flat[:: _sample_stride(flat.size, sample_limit)]
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
    """A predictor's residuals plus the side info its frame carries."""

    name: str
    residuals: np.ndarray
    model: RegressionModel | None = None
    modal: int = 0


def predict(q: np.ndarray, name: str, block_size: int, *,
            model: RegressionModel | None = None,
            modal: int | None = None) -> Prediction:
    """Residuals of ``q`` under the predictor called ``name``.

    ``model`` or ``modal`` reuse a regression fit or modal value already
    made on ``q`` (by :func:`predict_sampled`) instead of recomputing it.
    """
    if name == "lorenzo":
        return Prediction(name, lorenzo_residuals(q))
    if name == "mean":
        if modal is None:
            modal = modal_value(q)
        return Prediction(name, mean_residuals(q, modal), modal=modal)
    if name == "regression":
        if model is None:
            model = regression_fit(q, block_size)
        residuals = np.asarray(q, dtype=np.int64) - regression_predict(model)
        return Prediction(name, residuals, model=model)
    raise ValueError(f"unknown predictor {name!r}")


def predict_sampled(q: np.ndarray, name: str, block_size: int,
                    stride: int) -> Prediction:
    """:func:`predict` for mean or regression, with residuals only at
    the flat indices ``0, stride, 2·stride, ...`` of ``q``.

    Mean is ``q - modal`` there.  Regression fits every block as
    :func:`predict` does, then evaluates only the sampled points
    (:func:`regression_predict_at`).  Lorenzo has no sampled form: its
    ``2^d`` gathers per point cost about as much as the whole slabbed
    pass, so selection always computes it in full.
    """
    flat = np.ravel(np.asarray(q, dtype=np.int64))
    if name == "mean":
        modal = modal_value(q)
        return Prediction(name, flat[::stride] - np.int64(modal), modal=modal)
    if name == "regression":
        model = regression_fit(q, block_size)
        at = np.arange(0, flat.size, stride)
        return Prediction(name, flat[at] - regression_predict_at(model, at),
                          model=model)
    raise ValueError(f"predictor {name!r} has no sampled form")


#: From this many grid points up, :func:`select_predictor` scores mean
#: and regression on their sampled values alone and computes only the
#: winner over the full grid.  Below it, every candidate runs over the
#: whole grid, whose arrays then fit in cache.  Regression scoring on
#: nyx/t/cloudf48 at 1e-4 (fit included, CPU ms, best of 7, 2-vCPU
#: VM): at strides of 3-4 (small fields) 4.1-10.0 whole-grid against
#: 8.8-12.0 sampled; at strides of 32-35 (medium) 44-56 against 16-33.
#: Fields of up to 65,536 points are their own sample, so they never
#: pay for a gather.
SAMPLE_SCORE_MIN_POINTS = 8 * 65536


def select_predictor(q: np.ndarray, radius: int, block_size: int,
                     candidates: tuple[str, ...] = PREDICTORS,
                     *, lorenzo: np.ndarray | None = None) -> Prediction:
    """Pick the cheapest predictor by sampled entropy estimate.

    Mirrors SZ's "sampling approach to pick the best predictor among
    classical Lorenzo, mean-integrated Lorenzo and linear regression"
    (paper Sec. II-A).  Ties go to the earlier candidate, i.e. Lorenzo.
    Every candidate is scored on the points :func:`estimate_code_entropy`
    samples, and the winner is returned whole; ``lorenzo`` passes in
    residuals the caller already has.  Lorenzo always runs over the
    full grid.  From :data:`SAMPLE_SCORE_MIN_POINTS` up, mean and
    regression are evaluated at the sampled points only, and the
    winner's residuals are computed afterwards, reusing its modal value
    or fit; below it each runs once over the whole grid.
    """
    n = int(np.size(q))
    stride = _sample_stride(n) if n >= SAMPLE_SCORE_MIN_POINTS else 0

    def scored(name: str) -> tuple[float, Prediction]:
        if name == "lorenzo":
            cand = Prediction(name, lorenzo_residuals(q) if lorenzo is None
                              else lorenzo)
        elif stride:
            cand = predict_sampled(q, name, block_size, stride)
        else:
            cand = predict(q, name, block_size)
        return estimate_code_entropy(
            cand.residuals, radius,
            unpredictable_penalty_bits=UNPREDICTABLE_COST_BITS[name],
        ), cand

    # min() over a lazy map holds only the best candidate so far.
    best = min(map(scored, candidates), key=lambda pair: pair[0])[1]
    if stride and best.name != "lorenzo":
        best = predict(q, best.name, block_size, model=best.model,
                       modal=best.modal)
    return best


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
    plane carried in as plane 0; regression: add its slab of
    :func:`regression_predict`), and write ``q·2eb`` straight into the
    output.  The result equals the whole-array chain bit for bit:
    integer sums wrap alike in any order, and each value makes the
    same int64 → float64 → ``dtype`` roundings as
    :func:`~repro.sz.quantizer.grid_reconstruct`.

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
    pred = regression_predict(model) if name == "regression" else None
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
        elif pred is not None:
            g += pred[lo:hi]
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
