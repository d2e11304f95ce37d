"""SZ predictors on the integer grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz import predictors


def _residuals(q, name="lorenzo", **side):
    """``predictors.residual_slabs`` of ``q`` gathered into one array."""
    slabs = [r.copy() for _, r in predictors.residual_slabs(q, name, **side)]
    return np.concatenate(slabs).reshape(np.shape(q))


def _predicted(model):
    """The model's rounded prediction over its whole grid, in one slab."""
    planes = predictors.regression_predict_planes(model, 0, model.shape[0])
    return np.rint(planes).astype(np.int64)


def _invert(residuals, name="lorenzo", offset=0):
    """``predictors.reconstruct`` on residuals given directly (one rank
    per distinct value) at step 1.0, back to int64."""
    table, ranks = np.unique(residuals, return_inverse=True)
    out = predictors.reconstruct(
        ranks.astype(np.int32), table + np.int64(offset), residuals.shape,
        name, 0.5, np.float64,
    )
    return out.astype(np.int64)


class TestLorenzo:
    def test_1d_is_first_difference(self):
        q = np.array([3, 5, 4, 4], dtype=np.int64)
        res = _residuals(q)
        assert list(res) == [3, 2, -1, 0]

    def test_2d_matches_stencil(self):
        rng = np.random.default_rng(0)
        q = rng.integers(-100, 100, size=(12, 9)).astype(np.int64)
        res = _residuals(q)
        qp = np.pad(q, ((1, 0), (1, 0)))
        expected = q - (qp[:-1, 1:] + qp[1:, :-1] - qp[:-1, :-1])
        assert np.array_equal(res, expected)

    def test_3d_matches_stencil(self):
        rng = np.random.default_rng(1)
        q = rng.integers(-50, 50, size=(6, 7, 8)).astype(np.int64)
        res = _residuals(q)
        qp = np.pad(q, ((1, 0),) * 3)
        pred = (
            qp[:-1, 1:, 1:] + qp[1:, :-1, 1:] + qp[1:, 1:, :-1]
            - qp[:-1, :-1, 1:] - qp[:-1, 1:, :-1] - qp[1:, :-1, :-1]
            + qp[:-1, :-1, :-1]
        )
        assert np.array_equal(res, q - pred)

    def test_reconstruct_inverts(self):
        rng = np.random.default_rng(2)
        for shape in [(100,), (13, 17), (5, 6, 7), (3, 4, 5, 6)]:
            q = rng.integers(-1000, 1000, size=shape).astype(np.int64)
            res = _residuals(q)
            assert np.array_equal(_invert(res), q)

    def test_smooth_data_small_residuals(self):
        x = np.arange(100, dtype=np.int64) * 3
        res = _residuals(x)
        assert np.abs(res[1:]).max() <= 3

    @given(seed=st.integers(0, 2**32 - 1),
           ndim=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_inverse_property(self, seed, ndim):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 12, size=ndim))
        q = rng.integers(-(2**30), 2**30, size=shape).astype(np.int64)
        assert np.array_equal(_invert(_residuals(q)), q)


class TestMean:
    def test_modal_value(self):
        q = np.array([5, 5, 5, 1, 2], dtype=np.int64)
        assert predictors.modal_value(q) == 5

    def test_modal_empty(self):
        assert predictors.modal_value(np.empty(0, np.int64)) == 0

    def test_residual_roundtrip(self):
        q = np.array([10, 12, 10, 9], dtype=np.int64)
        res = _residuals(q, "mean", modal=10)
        assert np.array_equal(_invert(res, "mean", 10), q)

    def test_clustered_data_zero_residuals(self):
        q = np.full((8, 8), 42, dtype=np.int64)
        res = _residuals(q, "mean", modal=predictors.modal_value(q))
        assert (res == 0).all()


class TestRegression:
    def test_exact_on_plane(self):
        # A true plane is predicted exactly (coefficients fit losslessly
        # within float32 precision on small blocks).
        i, j = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        q = (3 * i + 5 * j + 7).astype(np.int64)
        model = predictors.regression_fit(q, 8)
        pred = _predicted(model)
        assert np.array_equal(pred, q)

    def test_coefficient_shape(self):
        q = np.zeros((16, 16, 16), dtype=np.int64)
        model = predictors.regression_fit(q, 8)
        assert model.coefficients.shape == (8, 4)
        assert model.coefficients.dtype == np.float32

    def test_padding_for_partial_blocks(self):
        q = np.arange(10 * 11, dtype=np.int64).reshape(10, 11)
        model = predictors.regression_fit(q, 8)
        pred = _predicted(model)
        assert pred.shape == q.shape

    def test_model_validates_shape(self):
        with pytest.raises(ValueError, match="coefficients"):
            predictors.RegressionModel(
                shape=(16, 16), block_size=8,
                coefficients=np.zeros((1, 3), dtype=np.float32),
            )

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(3)
        q = rng.integers(0, 100, size=(24, 24)).astype(np.int64)
        m1 = predictors.regression_fit(q, 8)
        p1 = _predicted(m1)
        # Decoder path: rebuild the model from the float32 coefficients.
        m2 = predictors.RegressionModel(
            shape=q.shape, block_size=8,
            coefficients=m1.coefficients.copy(),
        )
        assert np.array_equal(p1, _predicted(m2))


class TestSelection:
    def test_smooth_gradient_prefers_structure(self):
        i, j = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
        q = (2 * i + 3 * j).astype(np.int64)
        choice = predictors.select_predictor(q, 256, 8).name
        assert choice in ("lorenzo", "regression")

    def test_constant_data_any_predictor_ok(self):
        q = np.full((16, 16), 7, dtype=np.int64)
        assert predictors.select_predictor(q, 256, 8).name in predictors.PREDICTORS

    def test_clustered_prefers_mean(self):
        rng = np.random.default_rng(4)
        # Values identical except at scattered, spatially-random spikes:
        # Lorenzo pays twice per spike, mean pays once.
        q = np.full(4096, 100, dtype=np.int64)
        idx = rng.choice(4096, size=400, replace=False)
        q[idx] += rng.integers(-5, 5, size=400)
        choice = predictors.select_predictor(q, 64, 8).name
        assert choice == "mean"

    def test_unknown_candidate_rejected(self):
        with pytest.raises(ValueError, match="unknown predictor"):
            predictors.select_predictor(
                np.zeros(8, np.int64), 16, 8, candidates=("wavelet",)
            )


class TestEntropyEstimate:
    def test_zero_for_empty(self):
        assert predictors.estimate_code_entropy(np.empty(0, np.int64), 16) == 0.0

    def test_constant_residuals_zero_entropy(self):
        res = np.zeros(1000, dtype=np.int64)
        assert predictors.estimate_code_entropy(res, 16) == pytest.approx(0.0)

    def test_unpredictable_penalty(self):
        res = np.full(100, 10**6, dtype=np.int64)  # all out of range
        cost = predictors.estimate_code_entropy(
            res, 16, unpredictable_penalty_bits=40.0
        )
        assert cost == pytest.approx(40.0)

    def test_uniform_residuals_high_entropy(self):
        rng = np.random.default_rng(5)
        res = rng.integers(-8, 8, size=10000).astype(np.int64)
        cost = predictors.estimate_code_entropy(res, 16)
        assert 3.5 < cost < 4.1  # ~log2(16)
