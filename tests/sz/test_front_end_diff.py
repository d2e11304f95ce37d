"""Differential tests: the slabbed SZ compress front end against the
whole-array originals it replaced.

The oracles below are the pre-slab implementations, kept here (and
nowhere in ``src/``): whole-array ``grid_quantize_verified``, the
``np.diff`` Lorenzo residuals, the ``np.where`` code mapping and the
full-grid predictor selection.  Every test demands exact equality —
the front end must not change a single frame byte.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import trace
from repro.datasets import generate
from repro.sz import predictors, quantizer
from repro.sz.quantizer import SLAB_POINTS
from tests.oracles import lorenzo_reconstruct

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


def lorenzo_residuals_ref(q):
    r = np.asarray(q, dtype=np.int64)
    for axis in range(r.ndim):
        r = np.diff(r, axis=axis, prepend=np.int64(0))
    return r


def codes_from_residuals_ref(residuals, radius):
    r = np.asarray(residuals, dtype=np.int64)
    unpredictable = np.abs(r) >= radius
    return np.where(unpredictable, np.int64(0), r + np.int64(radius)), unpredictable


def select_predictor_ref(q, radius, block_size, *, lorenzo):
    """Every candidate over the full grid, then each residual array sampled."""
    best = None
    for name in predictors.PREDICTORS:
        if name == "lorenzo":
            cand = predictors.Prediction(name, lorenzo)
        elif name == "mean":
            modal = predictors.modal_value(q)
            cand = predictors.Prediction(
                name, np.asarray(q, np.int64) - np.int64(modal), modal=modal
            )
        else:
            model = predictors.regression_fit(q, block_size)
            cand = predictors.Prediction(
                name, q - predictors.regression_predict(model), model=model
            )
        cost = predictors.estimate_code_entropy(
            cand.residuals, radius,
            unpredictable_penalty_bits=predictors.UNPREDICTABLE_COST_BITS[name],
        )
        if best is None or cost < best[0]:
            best = (cost, cand)
    return best[1]


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
    res = predictors.lorenzo_residuals(q)
    assert res.dtype == np.int64
    assert np.array_equal(res, lorenzo_residuals_ref(q))
    assert np.array_equal(lorenzo_reconstruct(res), q)


def test_lorenzo_accepts_views_and_other_ints():
    rng = np.random.default_rng(9)
    q = rng.integers(-1000, 1000, size=(30, 40, 50))
    for view in (q[:, ::2], q.T, q.astype(np.int32)):
        assert np.array_equal(
            predictors.lorenzo_residuals(view), lorenzo_residuals_ref(view)
        )


@pytest.mark.parametrize("n", SIZES)
def test_codes_match_where(n):
    rng = np.random.default_rng(n)
    res = (rng.standard_normal(n) * 300).astype(np.int64)
    res[::97] = 2**62 - 1  # grid residuals stay below 2^62
    res[::89] = -(2**62 - 1)
    for radius in (1, 16, 256, 32768):
        codes, unpred = quantizer.codes_from_residuals(res, radius)
        codes_ref, unpred_ref = codes_from_residuals_ref(res, radius)
        assert np.array_equal(codes, codes_ref)
        assert np.array_equal(unpred, unpred_ref)
    shaped = res[: n - n % 4].reshape(4, -1) if n >= 4 else res.reshape(1, -1)
    codes, unpred = quantizer.codes_from_residuals(shaped, 64)
    assert codes.shape == unpred.shape == shaped.shape


# ---------------------------------------------------------------------------
# Sampled scores and selection
# ---------------------------------------------------------------------------

SAMPLED_SHAPES = [(1001,), (101, 77), (37, 41, 23), (5, 7, 9, 11)]


@pytest.mark.parametrize("shape", SAMPLED_SHAPES)
@pytest.mark.parametrize("block_size", [2, 3, 5, 8])
def test_sampled_residuals_match_full_grid(shape, block_size):
    """Every shape here leaves partial (edge-padded) blocks at some
    block size; the sampled residuals are the full ones, subsampled.
    (Lorenzo has no sampled form: selection samples its full residuals.)"""
    rng = np.random.default_rng(len(shape) * 10 + block_size)
    field = rng.standard_normal(shape)
    for axis in range(len(shape)):
        field = np.cumsum(field, axis=axis)
    q = quantizer.grid_quantize(field, 1e-3)
    for name in ("mean", "regression"):
        full = predictors.predict(q, name, block_size)
        for stride in (1, 2, 3, 8, 32):
            got = predictors.predict_sampled(q, name, block_size, stride)
            assert np.array_equal(got.residuals, np.ravel(full.residuals)[::stride])
            assert got.modal == full.modal
            if name == "regression":
                assert np.array_equal(
                    got.model.coefficients, full.model.coefficients
                )


def test_lorenzo_has_no_sampled_form():
    with pytest.raises(ValueError, match="no sampled form"):
        predictors.predict_sampled(np.zeros((4, 4), np.int64), "lorenzo", 2, 2)


def test_regression_predict_at_matches_full_grid():
    rng = np.random.default_rng(12)
    q = rng.integers(-(2**20), 2**20, size=(19, 23, 29))
    for block_size in (2, 4, 6, 8):
        model = predictors.regression_fit(q, block_size)
        full = np.ravel(predictors.regression_predict(model))
        at = rng.choice(q.size, size=500, replace=False)
        assert np.array_equal(predictors.regression_predict_at(model, at), full[at])


#: Above SAMPLE_SCORE_MIN_POINTS (524,288) with the same winners as the
#: presets: regression on wf48 at 1e-6 and q2 at 1e-2, mean on nyx and
#: qi, Lorenzo elsewhere.
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
    assert (data.size >= predictors.SAMPLE_SCORE_MIN_POINTS) == large
    q, _ = quantizer.grid_quantize_verified(data, eb)
    lorenzo = predictors.lorenzo_residuals(q)
    radius = quantizer.choose_radius(lorenzo)
    got = predictors.select_predictor(q, radius, 8, lorenzo=lorenzo)
    ref = select_predictor_ref(q, radius, 8, lorenzo=lorenzo)
    assert got.name == ref.name == winner
    assert np.array_equal(got.residuals, ref.residuals)
    assert got.residuals.shape == q.shape
    assert got.modal == ref.modal
    if winner == "regression":
        assert np.array_equal(got.model.coefficients, ref.model.coefficients)
    else:
        assert got.model is None
