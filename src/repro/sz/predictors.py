"""SZ's predictors, operating exactly on the quantized integer grid.

Three predictor families, matching the paper's description of SZ
(Sec. II-A): the classical **Lorenzo** predictor, the
**mean-integrated Lorenzo** variant (approximating clustered data by a
fixed value), and per-block **linear regression**.

Working on the grid (int64 indices ``q``) rather than on decompressed
floats is what makes everything vectorizable *and* exact:

* The N-d Lorenzo residual is precisely the composition of first
  differences along every axis (with zero ghost layers), so
  ``residuals = diff_axis0(diff_axis1(...))`` and the inverse is the
  composition of cumulative sums — each a single NumPy call per axis.
* The mean predictor is a constant (the modal grid value), so residual
  and reconstruction are elementwise.
* Regression predicts from transmitted per-block plane coefficients;
  both sides round the same float32 coefficients through the same
  float64 expression, so encoder and decoder agree bit-for-bit.

Every predictor returns plain residual arrays; the quantizer decides
which residuals are unpredictable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core import trace
from repro.sz import blocks as blk
from repro.sz import quantizer

__all__ = [
    "PREDICTORS",
    "lorenzo_residuals",
    "lorenzo_reconstruct",
    "modal_value",
    "mean_residuals",
    "mean_reconstruct",
    "RegressionModel",
    "regression_fit",
    "regression_predict",
    "estimate_code_entropy",
    "Prediction",
    "predict",
    "select_predictor",
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
    """
    r = np.asarray(q, dtype=np.int64)
    for axis in range(r.ndim):
        r = np.diff(r, axis=axis, prepend=np.int64(0))
    return r


def lorenzo_reconstruct(residuals: np.ndarray) -> np.ndarray:
    """Invert :func:`lorenzo_residuals` (cumulative sum per axis)."""
    q = np.asarray(residuals, dtype=np.int64)
    for axis in range(q.ndim):
        q = np.cumsum(q, axis=axis, dtype=np.int64)
    return q


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
    if flat.size > sample_limit:
        flat = flat[:: flat.size // sample_limit]
    values, counts = np.unique(flat, return_counts=True)
    return int(values[np.argmax(counts)])


def mean_residuals(q: np.ndarray, mode: int) -> np.ndarray:
    """Residuals against the constant modal predictor."""
    return np.asarray(q, dtype=np.int64) - np.int64(mode)


def mean_reconstruct(residuals: np.ndarray, mode: int) -> np.ndarray:
    """Invert :func:`mean_residuals`."""
    return np.asarray(residuals, dtype=np.int64) + np.int64(mode)


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
    q = np.asarray(q, dtype=np.float64)
    padded = blk.pad_to_blocks(q, block_size)
    blocked = blk.block_view(padded, block_size)  # (n_blocks, bs^ndim)
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


# ---------------------------------------------------------------------------
# Sampling-based predictor selection
# ---------------------------------------------------------------------------

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
    if flat.size > sample_limit:
        flat = flat[:: flat.size // sample_limit]
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


def predict(q: np.ndarray, name: str, block_size: int) -> Prediction:
    """Residuals of ``q`` under the predictor called ``name``."""
    if name == "lorenzo":
        return Prediction(name, lorenzo_residuals(q))
    if name == "mean":
        modal = modal_value(q)
        return Prediction(name, mean_residuals(q, modal), modal=modal)
    if name == "regression":
        model = regression_fit(q, block_size)
        residuals = np.asarray(q, dtype=np.int64) - regression_predict(model)
        return Prediction(name, residuals, model=model)
    raise ValueError(f"unknown predictor {name!r}")


def select_predictor(q: np.ndarray, radius: int, block_size: int,
                     candidates: tuple[str, ...] = PREDICTORS,
                     *, lorenzo: np.ndarray | None = None) -> Prediction:
    """Pick the cheapest predictor by sampled entropy estimate.

    Mirrors SZ's "sampling approach to pick the best predictor among
    classical Lorenzo, mean-integrated Lorenzo and linear regression"
    (paper Sec. II-A).  Ties go to the earlier candidate, i.e. Lorenzo.
    Each candidate runs once over the grid and the winner is returned
    whole; ``lorenzo`` passes in residuals the caller already has.
    """
    def scored(name: str) -> tuple[float, Prediction]:
        if name == "lorenzo" and lorenzo is not None:
            cand = Prediction(name, lorenzo)
        else:
            cand = predict(q, name, block_size)
        return estimate_code_entropy(
            cand.residuals, radius,
            unpredictable_penalty_bits=UNPREDICTABLE_COST_BITS[name],
        ), cand

    # min() over a lazy map holds only the best candidate so far.
    return min(map(scored, candidates), key=lambda pair: pair[0])[1]
