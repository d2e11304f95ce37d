"""Linear-scale quantization on the error-bound grid.

SZ's quantization maps each prediction residual to an integer code so
that reconstruction lands within the user's error bound.  We use the
*grid* formulation (DESIGN.md §5): a value ``x`` is first snapped to
the integer grid ``q = rint(x / (2·eb))``, which already guarantees
``|x - q·2eb| <= eb``.  Prediction and residual computation then happen
exactly, in integers, and are fully vectorizable; the reconstruction is
``q·2eb`` at every point, so the absolute error bound holds for
predictable *and* unpredictable data alike.

The code layout matches SZ: code ``0`` is the *unpredictable* sentinel
(the paper's Fig. 2/3 gray points); predictable residual ``r`` with
``|r| < R`` maps to code ``r + R`` in ``1 .. 2R-1``.  ``2R`` is the
number of quantization intervals (SZ's ``quantization_intervals``),
chosen adaptively from a residual sample like SZ's interval optimizer.

The elementwise compress passes run over :data:`SLAB_POINTS`-point
slabs so their temporaries stay in cache, and their results equal the
whole-array computations exactly.  :func:`grid_quantize_verified` makes
the int64 grid, the one whole-grid array a compress holds.
:func:`codes_from_residuals` takes the winning predictor's residuals
one slab at a time and keeps only ``uint16`` codes (a quarter of the
grid's bytes), the code histogram and the unpredictable points, so no
whole residual or int64 code array exists.  The decoder inverts the
code map inside its slab-wise reconstruction
(:func:`repro.sz.predictors.reconstruct`): a code's residual is
``code - radius``, looked up per Huffman symbol.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core import trace

__all__ = [
    "ErrorBound",
    "grid_quantize",
    "grid_quantize_verified",
    "grid_reconstruct",
    "CodeMap",
    "codes_from_residuals",
    "code_histogram",
    "choose_radius",
    "MAX_RADIUS",
    "MIN_RADIUS",
    "SLAB_POINTS",
]

#: Largest quantization radius (2*MAX_RADIUS intervals = SZ's 65536 cap).
MAX_RADIUS = 1 << 15
#: Smallest radius considered by the adaptive interval optimizer.
MIN_RADIUS = 1 << 4

#: Grid indices beyond this magnitude risk int64 overflow in the
#: Lorenzo stencil (an alternating sum of up to 8 grid values).
_GRID_LIMIT = float(1 << 58)

#: Points per slab of the elementwise compress passes
#: (:func:`grid_quantize_verified`, the residual slabs
#: :func:`codes_from_residuals` reads) and of the decoder's reconstruction
#: (:func:`repro.sz.predictors.reconstruct`).  A slab's
#: float64 temporaries are 256 KB each and stay in cache; whole-array,
#: the same dozen temporaries of a medium field (2.1-2.3 M points,
#: 17 MB each) are bound by memory bandwidth.  Measured on nyx, t and
#: cloudf48 at medium, 1e-4 (2-vCPU VM, CPU ms, best of 5): quantize
#: 17-19 ms in 2^15-point slabs against 73-79 ms whole-array, the code
#: map 6-7 ms against 15-20 ms, the Lorenzo residuals 9-19 ms against
#: 19-41 ms (three np.diff passes).
SLAB_POINTS = 1 << 15


@dataclass(frozen=True)
class ErrorBound:
    """A user error-bound specification.

    Parameters
    ----------
    value:
        The bound.  Must be positive.
    mode:
        ``"abs"`` — absolute bound (the paper's mode); ``"rel"`` —
        value-range-relative: the effective absolute bound is
        ``value * (max - min)`` of the dataset; ``"pw_rel"`` —
        point-wise relative: ``|x' - x| <= value * |x|`` at every
        point, implemented by the compressor through a logarithmic
        pre-transform (zero values are restored exactly).
    """

    value: float
    mode: str = "abs"

    def __post_init__(self) -> None:
        if self.mode not in ("abs", "rel", "pw_rel"):
            raise ValueError(f"unknown error-bound mode {self.mode!r}")
        if not (self.value > 0.0) or not math.isfinite(self.value):
            raise ValueError(f"error bound must be positive and finite, got {self.value}")

    def resolve(self, data: np.ndarray) -> float:
        """The effective absolute bound for ``data``.

        For ``pw_rel`` this is the absolute bound *in log2 space*:
        compressing ``log2|x|`` with bound ``log2(1 + r)`` guarantees
        ``|x' - x| <= r * |x|`` after the exponential inverse.
        """
        if self.mode == "abs":
            return self.value
        if self.mode == "pw_rel":
            # Reserve a half-ulp of the output dtype: the final cast of
            # 2^y' can add that much relative error on top of the
            # log-space bound, and the user-facing guarantee is on the
            # *stored* values.
            margin = 2.0**-23 if np.asarray(data).dtype == np.float32 else 2.0**-52
            effective = (1.0 + self.value) * (1.0 - margin)
            if effective <= 1.0:
                raise ValueError(
                    f"pw_rel bound {self.value} is below the output "
                    "dtype's relative resolution"
                )
            return math.log2(effective)
        lo = float(np.min(data))
        hi = float(np.max(data))
        value_range = hi - lo
        if value_range == 0.0:
            # A constant field: any positive bound works; pick the raw
            # value so behaviour is continuous as range -> 0.
            return self.value
        return self.value * value_range


def grid_quantize(data: np.ndarray, eb: float) -> np.ndarray:
    """Snap ``data`` onto the ``2·eb`` grid, returning int64 indices.

    Raises
    ------
    ValueError
        If any grid index would overflow the exact int64/float64 range
        (bound too tight for the data's magnitude).
    """
    scaled = np.asarray(data, dtype=np.float64) / (2.0 * eb)
    if not np.isfinite(scaled).all():
        raise ValueError("data contains non-finite values")
    if np.abs(scaled).max(initial=0.0) >= _GRID_LIMIT:
        raise ValueError(
            "error bound too tight for the data magnitude: grid index "
            "would overflow; loosen the bound or rescale the data"
        )
    return np.rint(scaled).astype(np.int64)


def grid_quantize_verified(data: np.ndarray, eb: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid-quantize and *verify* the bound in the output dtype.

    Casting the float64 reconstruction ``q·2eb`` to float32 adds up to
    half a ulp, which can push a point marginally past the bound when
    ``eb`` is near the data's ulp.  This encoder-side pass checks every
    point against its actual round-tripped value and nudges the grid
    index by ±1 where that recovers the bound — the same
    decompressed-value verification SZ performs during encoding.

    Returns the repaired grid and the flat indices of points where *no*
    neighbouring grid index satisfies the bound (only possible when
    ``eb`` is below the representable resolution of the data).  The
    compressor stores those points verbatim in its ``exact`` channel,
    exactly like SZ's verbatim unpredictable floats, so the user-facing
    bound holds unconditionally.

    Every step is elementwise, so the pass runs over
    :data:`SLAB_POINTS`-point slabs whose float64 temporaries stay in
    cache; the result equals the whole-array :func:`grid_quantize`
    followed by the same repair, including which ``ValueError`` a bad
    input raises.  A call counts ``quantize.repair_passes`` once if any
    slab needed a repair.
    """
    dtype = data.dtype
    flat = np.ravel(data)
    q = np.empty(data.shape, dtype=np.int64)
    flat_q = q.reshape(-1)
    exact: list[np.ndarray] = []
    for lo in range(0, flat.size, SLAB_POINTS):
        hi = lo + SLAB_POINTS
        local = _quantize_slab(flat[lo:hi], flat_q[lo:hi], eb, dtype, flat[hi:])
        if local is not None:
            exact.append(local + lo)
    if not exact:
        return q, np.empty(0, dtype=np.int64)
    trace.count("quantize.repair_passes", 1)
    return q, np.concatenate(exact)


def _quantize_slab(x: np.ndarray, q: np.ndarray, eb: float, dtype: np.dtype,
                   rest: np.ndarray) -> np.ndarray | None:
    """Quantize, collapse and repair one slab ``x`` into ``q`` in place.

    Returns ``None`` if every point met the bound on the first try,
    else the slab-local indices no neighbouring grid index rescues.
    ``rest`` is the data after this slab: a grid overflow here defers
    to a non-finite value there, as the whole-array check would.
    """
    step = 2.0 * eb
    # max|x| / step is the largest |scaled| (rounding is monotone), and
    # the max propagates NaN and inf, so one reduction makes both of
    # grid_quantize's checks.
    peak = float(np.abs(x).max())
    if not math.isfinite(peak):
        raise ValueError("data contains non-finite values")
    if peak / step >= _GRID_LIMIT:
        if not np.isfinite(rest).all():
            raise ValueError("data contains non-finite values")
        raise ValueError(
            "error bound too tight for the data magnitude: grid index "
            "would overflow; loosen the bound or rescale the data"
        )
    xf = np.asarray(x, dtype=np.float64)
    scaled = xf / step
    q[:] = np.rint(scaled, out=scaled)
    # np.spacing grows with |x|, so the slab's largest value decides
    # whether any point carries phantom precision.
    if dtype == np.float32 and 0.25 * float(np.spacing(np.float32(peak))) > eb:
        _collapse_phantom_precision(x, xf, q, eb)
    err = np.abs(grid_reconstruct(q, eb, dtype).astype(np.float64) - xf)
    idx = np.flatnonzero(err > eb)
    if not idx.size:
        return None
    best_q = q[idx]
    best_err = err[idx]
    for delta in (-1, 1):
        cand = q[idx] + delta
        cand_err = np.abs(
            grid_reconstruct(cand, eb, dtype).astype(np.float64) - xf[idx]
        )
        better = cand_err < best_err
        best_q = np.where(better, cand, best_q)
        best_err = np.where(better, cand_err, best_err)
    q[idx] = best_q
    return idx[best_err > eb]


def _collapse_phantom_precision(x: np.ndarray, xf: np.ndarray, q: np.ndarray,
                                eb: float) -> None:
    """Remove sub-ulp "phantom" grid precision from float32 data.

    When ``eb`` is far below a value's float32 ulp, *every* grid index
    in a wide window casts back to the identical float32 — yet
    ``rint(x/2eb)`` picks one whose low bits mirror the float's own
    representation, feeding the entropy coder bits that carry no
    information (real SZ never pays them: it stores such points as
    verbatim 4-byte floats).  For each point whose quarter-ulp exceeds
    the bound we substitute the *lowest* admissible grid index in ``q``
    (``xf`` is ``x`` as float64).  The resulting staircase tracks the
    data at its own representable resolution, so downstream residuals
    match the true information content, while the reconstruction still
    casts to the exact float32 (error 0 at those points).
    """
    tol = 0.25 * np.spacing(np.abs(x)).astype(np.float64)
    mask = tol > eb
    q[mask] = np.ceil((xf[mask] - tol[mask]) / (2.0 * eb)).astype(np.int64)


def grid_reconstruct(q: np.ndarray, eb: float, dtype: np.dtype) -> np.ndarray:
    """Map grid indices back to values (``q·2eb``) in the original dtype."""
    return (np.asarray(q, dtype=np.float64) * (2.0 * eb)).astype(dtype)


def choose_radius(residuals: np.ndarray, *, coverage: float = 0.995,
                  sample_limit: int = 65536) -> int:
    """Adaptively pick the quantization radius (SZ's interval optimizer).

    Chooses the smallest power-of-two radius ``R`` in
    [:data:`MIN_RADIUS`, :data:`MAX_RADIUS`] such that at least
    ``coverage`` of a residual sample satisfies ``|r| < R``.  Residuals
    outside the final radius become unpredictable data.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must be in (0, 1]")
    flat = np.ravel(residuals)
    if flat.size == 0:
        return MIN_RADIUS
    if flat.size > sample_limit:
        stride = flat.size // sample_limit
        flat = flat[::stride]
    mags = np.abs(flat)
    radius = MIN_RADIUS
    while radius < MAX_RADIUS:
        if (mags < radius).mean() >= coverage:
            return radius
        radius <<= 1
    return MAX_RADIUS


class CodeMap(NamedTuple):
    """A residual grid's quantization codes and what the frame needs
    besides them."""

    #: One code per point, in C order: ``0`` marks an unpredictable
    #: point, predictable residual ``r`` becomes ``r + radius``.
    codes: np.ndarray
    #: The distinct codes and their counts, as :func:`code_histogram`.
    symbols: np.ndarray
    counts: np.ndarray
    #: Flat indices of the unpredictable points (paper Fig. 3's gray
    #: points), ascending, and their residuals.
    unpredictable: np.ndarray
    outliers: np.ndarray


def codes_from_residuals(slabs: Iterable[tuple[int, np.ndarray]], n: int,
                         radius: int) -> CodeMap:
    """Map residuals to quantization codes, slab by slab.

    ``slabs`` yields ``(offset, residuals)`` pairs that tile the ``n``
    flat C-order positions in order, as
    :func:`repro.sz.predictors.residual_slabs` does; the slabs are only
    read.  The codes go into one ``uint16`` array: every code is below
    ``2·radius <= 2·MAX_RADIUS = 65,536``.  Residuals must satisfy
    ``|r| < 2^62``, as every grid residual does (a 4-D Lorenzo sum of
    16 grid values below ``2^58``).
    """
    if not 1 <= radius <= MAX_RADIUS:
        raise ValueError(f"radius must be in 1..{MAX_RADIUS}, got {radius}")
    codes = np.empty(n, dtype=np.uint16)
    hist = np.zeros(2 * radius, dtype=np.int64)
    scratch = np.empty(0, dtype=np.int64)
    where: list[np.ndarray] = []
    outliers: list[np.ndarray] = []
    for lo, r in slabs:
        if scratch.size < r.size:
            scratch = np.empty(r.size, dtype=np.int64)
        c = np.add(r, radius, out=scratch[: r.size])
        # |r| >= radius exactly when r + radius - 1 falls outside
        # [0, 2·radius - 2]; as uint64 that is one comparison.
        hits = np.flatnonzero((c - 1).view(np.uint64) >= 2 * radius - 1)
        if hits.size:
            where.append(hits + lo)
            outliers.append(r[hits])
            c[hits] = 0
        hist += np.bincount(c, minlength=2 * radius)
        codes[lo : lo + r.size] = c
    symbols = np.flatnonzero(hist)
    unpredictable = np.concatenate(where) if where else np.empty(0, np.int64)
    return CodeMap(
        codes, symbols, hist[symbols], unpredictable,
        np.concatenate(outliers) if outliers else np.empty(0, np.int64),
    )


def code_histogram(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_counts=True)`` without the sort: codes
    lie in ``[0, 2R)``, so count them densely (SZ-1.4's frequency array)."""
    hist = np.bincount(np.ravel(codes))
    symbols = np.flatnonzero(hist)
    return symbols, hist[symbols]
