"""Differential tests: the slabbed SZ compress front end against the
whole-array originals it replaced.

The oracles are the pre-slab implementations, kept here and in
``tests/oracles.py`` (and nowhere in ``src/``): whole-array
``grid_quantize_verified``, the ``np.diff`` Lorenzo residuals, the
``np.where`` code mapping, the full-grid regression prediction, the
full-grid predictor selection and the whole-grid writer built from them
(``compress_ref``).  Every test demands exact equality — the front end
must not change a single frame byte.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import trace
from repro.datasets import generate
from repro.sz import SZCompressor, predictors, quantizer
from repro.sz.quantizer import SLAB_POINTS
from tests.oracles import (
    compress_ref,
    lorenzo_reconstruct,
    lorenzo_residuals_ref,
    predict_ref,
    regression_predict,
    regression_predict_at,
    select_predictor_ref,
)

# ---------------------------------------------------------------------------
# Oracles: the whole-array front end
# ---------------------------------------------------------------------------


def _collapse_ref(data, q, eb):
    x = np.asarray(data, dtype=np.float64)
    tol = 0.25 * np.spacing(np.abs(np.asarray(data, dtype=np.float32))).astype(
        np.float64
    )
    mask = tol > eb
    if not mask.any():
        return q
    q = q.copy()
    q[mask] = np.ceil((x[mask] - tol[mask]) / (2.0 * eb)).astype(np.int64)
    return q


def grid_quantize_verified_ref(data, eb):
    q = quantizer.grid_quantize(data, eb)
    dtype = data.dtype
    if dtype == np.float32:
        q = _collapse_ref(data, q, eb)
    recon = quantizer.grid_reconstruct(q, eb, dtype)
    err = np.abs(recon.astype(np.float64) - np.asarray(data, dtype=np.float64))
    bad = err > eb
    if not bad.any():
        return q, np.empty(0, dtype=np.int64)
    trace.count("quantize.repair_passes", 1)
    idx = np.nonzero(np.ravel(bad))[0]
    flat_q = np.ravel(q).copy()
    flat_x = np.ravel(np.asarray(data, dtype=np.float64))
    best_q = flat_q[idx]
    best_err = np.ravel(err)[idx]
    for delta in (-1, 1):
        cand = flat_q[idx] + delta
        cand_err = np.abs(
            quantizer.grid_reconstruct(cand, eb, dtype).astype(np.float64)
            - flat_x[idx]
        )
        better = cand_err < best_err
        best_q = np.where(better, cand, best_q)
        best_err = np.where(better, cand_err, best_err)
    flat_q[idx] = best_q
    return flat_q.reshape(q.shape), idx[best_err > eb]


def codes_from_residuals_ref(residuals, radius):
    r = np.asarray(residuals, dtype=np.int64)
    unpredictable = np.abs(r) >= radius
    return np.where(unpredictable, np.int64(0), r + np.int64(radius)), unpredictable


def full_residuals(q, name, **side):
    """``predictors.residual_slabs`` gathered into one array."""
    slabs = predictors.residual_slabs(q, name, **side)
    return np.concatenate([r.copy() for _, r in slabs] or [np.empty(0, np.int64)]
                          ).reshape(np.shape(q))


def code_map(residuals, radius, slab=SLAB_POINTS):
    """``codes_from_residuals`` over ``residuals`` cut into ``slab``-point
    pieces."""
    flat = np.ravel(residuals)
    pieces = ((lo, flat[lo : lo + slab]) for lo in range(0, flat.size, slab))
    return quantizer.codes_from_residuals(pieces, flat.size, radius)


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------

SIZES = [0, 1, SLAB_POINTS - 1, SLAB_POINTS, SLAB_POINTS + 1, 3 * SLAB_POINTS + 1]


def _repairs(fn, data, eb):
    before = trace.counters_snapshot().get("quantize.repair_passes", 0)
    out = fn(data, eb)
    return out, trace.counters_snapshot().get("quantize.repair_passes", 0) - before


def _assert_quantize_matches(data, eb):
    (q, exact), n_new = _repairs(quantizer.grid_quantize_verified, data, eb)
    (q_ref, exact_ref), n_ref = _repairs(grid_quantize_verified_ref, data, eb)
    assert q.dtype == np.int64 and q.shape == data.shape
    assert np.array_equal(q, q_ref)
    assert exact.dtype == np.int64
    assert np.array_equal(exact, exact_ref)
    assert n_new == n_ref
    return exact_ref, n_ref


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", SIZES)
def test_quantize_matches_whole_array(n, dtype):
    rng = np.random.default_rng(n)
    data = (rng.standard_normal(n) * 50).astype(dtype)
    for eb in (1e-1, 1e-4):
        _assert_quantize_matches(data, eb)


@pytest.mark.parametrize("n", SIZES[1:])
def test_quantize_phantom_collapse_and_repair_float32(n):
    """Sub-ulp bounds: the collapse fires far above the ulp, the ±1
    repair and the exact channel near it."""
    rng = np.random.default_rng(7 + n)
    far = (2.0e4 + 0.05 * rng.standard_normal(n)).astype(np.float32)
    near = (1.0 + 1e-3 * rng.standard_normal(n)).astype(np.float32)
    # Mix magnitudes so some slabs collapse and others do not.
    mixed = np.where(np.arange(n) % 3 == 0, far, near).astype(np.float32)
    for data, eb in ((far, 1e-7), (near, 3.1e-8), (mixed, 3.1e-8)):
        _assert_quantize_matches(data, eb)
        _assert_quantize_matches(data.reshape(1, -1), eb)


def test_quantize_exercises_exact_channel():
    """Repairs in several slabs still count one repair pass per call."""
    rng = np.random.default_rng(11)
    n = 3 * SLAB_POINTS + 1
    near = (1.0 + 1e-3 * rng.standard_normal(n)).astype(np.float32)
    exact, repairs = _assert_quantize_matches(near, 3.1e-8)
    assert repairs == 1 and exact.size > 0
    big = 3e7 + rng.standard_normal(n)
    exact, repairs = _assert_quantize_matches(big, 2e-9)
    assert repairs == 1 and exact.size > 0
    # Several slabs contribute exact points, in ascending order.
    assert np.unique(exact // SLAB_POINTS).size > 1


@pytest.mark.parametrize("shape", [(5, 7, 9), (3, 4, 5, 6), (40, 2000)])
def test_quantize_nd_shapes(shape):
    rng = np.random.default_rng(3)
    data = rng.standard_normal(shape).astype(np.float32)
    _assert_quantize_matches(data, 1e-5)


def _error_text(fn, data, eb):
    with pytest.raises(ValueError) as info:
        fn(data, eb)
    return str(info.value)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_quantize_errors_match(dtype):
    n = 3 * SLAB_POINTS + 1
    cases = []
    for bad in (np.nan, np.inf, -np.inf):
        for at in (0, SLAB_POINTS, n - 1):
            data = np.zeros(n, dtype=dtype)
            data[at] = bad
            cases.append((data, 1e-3))
    # Grid overflow alone, and overflow in an early slab with a
    # non-finite value in a later one (the whole-array check reports
    # the non-finite value).
    over = np.zeros(n, dtype=dtype)
    over[5] = 1e30
    cases.append((over, 1e-10))
    both = over.copy()
    both[2 * SLAB_POINTS + 3] = np.nan
    cases.append((both, 1e-10))
    both_first = over.copy()
    both_first[1] = np.inf
    cases.append((both_first, 1e-10))
    for data, eb in cases:
        expect = _error_text(grid_quantize_verified_ref, data, eb)
        assert _error_text(quantizer.grid_quantize_verified, data, eb) == expect
    assert "too tight" in _error_text(quantizer.grid_quantize_verified, over, 1e-10)
    assert "non-finite" in _error_text(quantizer.grid_quantize_verified, both, 1e-10)


def test_quantize_peak_memory():
    """Slabbed, the pass holds the int64 grid plus cache-sized scratch:
    at most 2.5x a float32 input (the whole-array pass read 7-9x)."""
    rng = np.random.default_rng(5)
    data = (rng.standard_normal(1 << 21) * 10).astype(np.float32)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        q, exact = quantizer.grid_quantize_verified(data, 1e-4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert q.size == data.size
    assert peak <= 2.5 * data.nbytes, peak / data.nbytes


# ---------------------------------------------------------------------------
# Lorenzo residuals and the code mapping
# ---------------------------------------------------------------------------

# Planes (axis-0 slices) smaller and larger than a slab, in 1-4 D.
LORENZO_SHAPES = [
    (1,), (2,), (SLAB_POINTS + 3,), (3 * SLAB_POINTS + 1,),
    (1, 5), (7, 3), (300, 301), (3, SLAB_POINTS + 5),
    (2, 3, 4), (40, 60, 70), (3, 190, 190), (1, 1, 1),
    (2, 3, 4, 5), (7, 9, 40, 40), (2, 2, 150, 150),
]


@pytest.mark.parametrize("shape", LORENZO_SHAPES)
def test_lorenzo_matches_diff(shape):
    rng = np.random.default_rng(sum(shape))
    q = rng.integers(-(2**40), 2**40, size=shape)
    res = full_residuals(q, "lorenzo")
    assert res.dtype == np.int64
    assert np.array_equal(res, lorenzo_residuals_ref(q))
    assert np.array_equal(lorenzo_reconstruct(res), q)


def test_lorenzo_accepts_views_and_other_ints():
    rng = np.random.default_rng(9)
    q = rng.integers(-1000, 1000, size=(30, 40, 50))
    for view in (q[:, ::2], q.T, q.astype(np.int32)):
        assert np.array_equal(
            full_residuals(view, "lorenzo"), lorenzo_residuals_ref(view)
        )


@pytest.mark.parametrize("n", SIZES)
def test_codes_match_where(n):
    """uint16 codes, the histogram and the unpredictable points agree
    with the whole-array ``np.where`` map, however the residuals are
    cut into slabs."""
    rng = np.random.default_rng(n)
    res = (rng.standard_normal(n) * 300).astype(np.int64)
    res[::97] = 2**62 - 1  # grid residuals stay below 2^62
    res[::89] = -(2**62 - 1)
    before = res.copy()
    for radius in (1, 16, 256, 32768):
        codes_ref, unpred_ref = codes_from_residuals_ref(res, radius)
        symbols, counts = np.unique(codes_ref, return_counts=True)
        for slab in (SLAB_POINTS, 1000):
            got = code_map(res, radius, slab)
            assert got.codes.dtype == np.uint16
            assert np.array_equal(got.codes, codes_ref)
            assert np.array_equal(got.unpredictable, np.flatnonzero(unpred_ref))
            assert np.array_equal(got.outliers, res[unpred_ref])
            assert np.array_equal(got.symbols, symbols)
            assert np.array_equal(got.counts, counts)
    assert np.array_equal(res, before)  # the slabs are only read
    with pytest.raises(ValueError, match="radius"):
        code_map(res, quantizer.MAX_RADIUS + 1)


# ---------------------------------------------------------------------------
# Sampled scores and selection
# ---------------------------------------------------------------------------

SAMPLED_SHAPES = [(1001,), (101, 77), (37, 41, 23), (5, 7, 9, 11)]


@pytest.mark.parametrize("shape", SAMPLED_SHAPES)
@pytest.mark.parametrize("block_size", [2, 3, 5, 8])
def test_sampled_residuals_match_full_grid(shape, block_size):
    """Every shape here leaves partial (edge-padded) blocks at some
    block size; the sampled residuals are the full ones, subsampled,
    and so are the slab residuals of every predictor."""
    rng = np.random.default_rng(len(shape) * 10 + block_size)
    field = rng.standard_normal(shape)
    for axis in range(len(shape)):
        field = np.cumsum(field, axis=axis)
    q = quantizer.grid_quantize(field, 1e-3)
    for name in predictors.PREDICTORS:
        full = predict_ref(q, name, block_size)
        for stride in (1, 2, 3, 8, 32):
            got = predictors.predict_sampled(q, name, block_size, stride)
            assert np.array_equal(got.sample, np.ravel(full.residuals)[::stride])
            assert got.modal == full.modal
            if name == "regression":
                assert np.array_equal(
                    got.model.coefficients, full.model.coefficients
                )
        assert np.array_equal(
            full_residuals(q, name, model=full.model, modal=full.modal),
            full.residuals,
        )


def test_unknown_predictor_has_no_sampled_form():
    for fn in (lambda: predictors.predict_sampled(np.zeros((4, 4), np.int64),
                                                  "wavelet", 2, 2),
               lambda: next(predictors.residual_slabs(np.zeros(4), "wavelet"))):
        with pytest.raises(ValueError, match="unknown predictor"):
            fn()


# Every axis length leaves a partial block at some block size here.
REGRESSION_SHAPES = [(1,), (37,), (3 * SLAB_POINTS + 5,), (19, 23), (2, 3 * SLAB_POINTS),
                     (19, 23, 29), (3, 190, 201), (5, 7, 9, 11), (2, 3, 100, 130)]


def test_regression_predict_at_matches_full_grid():
    """The slab evaluator over the reader's and the writer's slabs, and
    the point evaluator it took its sum from, equal the full-grid matmul
    prediction, on every shape and block size here."""
    for shape in REGRESSION_SHAPES:
        rng = np.random.default_rng(sum(shape))
        q = rng.integers(-(2**20), 2**20, size=shape)
        planes = q.size // shape[0]
        step = max(1, SLAB_POINTS // planes)
        for block_size in (2, 3, 4, 6, 8):
            model = predictors.regression_fit(q, block_size)
            full = regression_predict(model)
            at = rng.choice(q.size, size=min(500, q.size), replace=False)
            assert np.array_equal(regression_predict_at(model, at),
                                  np.ravel(full)[at])
            for lo in range(0, shape[0], step):
                hi = min(lo + step, shape[0])
                got = predictors.regression_predict_planes(model, lo, hi)
                assert got.shape == full[lo:hi].shape
                assert np.array_equal(np.rint(got).astype(np.int64),
                                      full[lo:hi]), (shape, block_size, lo)
            assert np.array_equal(full_residuals(q, "regression", model=model),
                                  q - full)


#: Above 8 * 65,536 points with the same winners as the presets:
#: regression on wf48 at 1e-6 and q2 at 1e-2, mean on nyx and qi,
#: Lorenzo elsewhere.  The whole-grid writer scored mean and regression
#: on their full residuals below that size and on samples above it.
_LARGE_DIMS = {"wf48": (24, 160, 160), "q2": (11, 240, 240),
               "nyx": (80, 80, 96), "qi": (6, 16, 80, 80),
               "t": (6, 16, 80, 80), "cloudf48": (24, 160, 160)}
_SELECTION_CASES = [("wf48", 1e-6, "regression"), ("q2", 1e-2, "regression"),
                    ("nyx", 1e-4, "mean"), ("qi", 1e-4, "mean"),
                    ("t", 1e-4, "lorenzo"), ("cloudf48", 1e-4, "lorenzo")]


@pytest.mark.parametrize("large", [False, True], ids=["small", "large"])
@pytest.mark.parametrize("name,eb,winner", _SELECTION_CASES)
def test_selection_matches_full_grid(name, eb, winner, large):
    dims = _LARGE_DIMS[name] if large else None
    data = np.asarray(generate(name, dims=dims, size="small"))
    assert (data.size >= 8 * 65536) == large
    q, _ = quantizer.grid_quantize_verified(data, eb)
    stride = predictors.sample_stride(q.size)
    lorenzo = predictors.predict_sampled(q, "lorenzo", 8, stride)
    radius = quantizer.choose_radius(lorenzo.sample)
    assert radius == quantizer.choose_radius(lorenzo_residuals_ref(q))
    got = predictors.select_predictor(q, radius, 8, lorenzo=lorenzo)
    ref = select_predictor_ref(q, radius, 8)
    assert got.name == ref.name == winner
    assert np.array_equal(got.sample, np.ravel(ref.residuals)[::stride])
    assert got.modal == ref.modal
    if winner == "regression":
        assert np.array_equal(got.model.coefficients, ref.model.coefficients)
    else:
        assert got.model is None
    comp = SZCompressor(eb)
    frame, frame_ref = comp.compress(data), compress_ref(comp, data)
    assert frame.sections == frame_ref.sections
    assert frame.stats == frame_ref.stats
