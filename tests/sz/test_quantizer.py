"""Grid quantization and the error-bound machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz import predictors, quantizer
from repro.sz.quantizer import ErrorBound
from tests.oracles import residuals_from_codes


class TestErrorBound:
    def test_abs_mode(self):
        eb = ErrorBound(1e-3, "abs")
        assert eb.resolve(np.array([1.0, 100.0])) == 1e-3

    def test_rel_mode(self):
        eb = ErrorBound(1e-2, "rel")
        data = np.array([0.0, 10.0])
        assert eb.resolve(data) == pytest.approx(0.1)

    def test_rel_constant_field(self):
        eb = ErrorBound(1e-2, "rel")
        assert eb.resolve(np.full(10, 5.0)) == 1e-2

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ErrorBound(1e-3, "l2")

    def test_pw_rel_resolves_to_log_space(self):
        import math
        eb = ErrorBound(1e-2, "pw_rel")
        resolved = eb.resolve(np.zeros(4, dtype=np.float64))
        assert resolved == pytest.approx(math.log2(1.01), rel=1e-6)

    def test_pw_rel_rejects_sub_resolution_bound(self):
        eb = ErrorBound(1e-9, "pw_rel")
        with pytest.raises(ValueError, match="resolution"):
            eb.resolve(np.zeros(4, dtype=np.float32))

    def test_rejects_bad_value(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ErrorBound(bad)


class TestGridQuantize:
    def test_grid_bound(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(1000)
        for eb in (1e-1, 1e-3, 1e-6):
            q = quantizer.grid_quantize(data, eb)
            recon = q * 2.0 * eb
            assert np.abs(recon - data).max() <= eb * (1 + 1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            quantizer.grid_quantize(np.array([1.0, np.inf]), 1e-3)
        with pytest.raises(ValueError, match="non-finite"):
            quantizer.grid_quantize(np.array([np.nan]), 1e-3)

    def test_rejects_overflowing_grid(self):
        with pytest.raises(ValueError, match="too tight"):
            quantizer.grid_quantize(np.array([1e30]), 1e-10)

    def test_zero_maps_to_zero(self):
        assert quantizer.grid_quantize(np.zeros(4), 1e-3).tolist() == [0, 0, 0, 0]


class TestVerifiedQuantize:
    def test_float32_bound_holds_after_cast(self):
        rng = np.random.default_rng(1)
        data = (rng.standard_normal(2000) * 4).astype(np.float32)
        for eb in (1e-3, 1e-5, 1e-7):
            q, exact_idx = quantizer.grid_quantize_verified(data, eb)
            recon = quantizer.grid_reconstruct(q, eb, np.float32)
            err = np.abs(recon.astype(np.float64) - data.astype(np.float64))
            ok = np.ones(data.size, dtype=bool)
            ok[exact_idx] = False  # those are stored verbatim upstream
            assert (err[ok] <= eb).all()

    def test_no_exact_points_at_loose_bound(self):
        data = np.linspace(0, 1, 100, dtype=np.float32)
        _, exact_idx = quantizer.grid_quantize_verified(data, 1e-2)
        assert exact_idx.size == 0

    def test_phantom_collapse_reduces_entropy(self):
        # Values far above the bound's resolution: the staircase should
        # produce far fewer distinct residuals than naive rint.
        rng = np.random.default_rng(2)
        data = (2.0e4 + 0.05 * rng.standard_normal(4096)).astype(np.float32)
        eb = 1e-7
        naive = quantizer.grid_quantize(data, eb)
        collapsed, _ = quantizer.grid_quantize_verified(data, eb)
        assert np.unique(np.diff(collapsed)).size < np.unique(np.diff(naive)).size
        # And the collapsed grid still casts back to the exact floats.
        recon = quantizer.grid_reconstruct(collapsed, eb, np.float32)
        assert np.array_equal(recon, data)

    def test_float64_unaffected_by_collapse(self):
        data = np.linspace(0, 1, 50)
        q, exact_idx = quantizer.grid_quantize_verified(data, 1e-6)
        assert exact_idx.size == 0
        assert np.array_equal(q, quantizer.grid_quantize(data, 1e-6))


class TestChooseRadius:
    def test_small_residuals_small_radius(self):
        res = np.zeros(1000, dtype=np.int64)
        assert quantizer.choose_radius(res) == quantizer.MIN_RADIUS

    def test_scales_with_magnitude(self):
        res = np.full(1000, 100, dtype=np.int64)
        assert quantizer.choose_radius(res) == 128

    def test_caps_at_max(self):
        res = np.full(1000, 2**40, dtype=np.int64)
        assert quantizer.choose_radius(res) == quantizer.MAX_RADIUS

    def test_coverage_respected(self):
        res = np.concatenate([np.zeros(99, dtype=np.int64),
                              np.full(1, 1000, dtype=np.int64)])
        r99 = quantizer.choose_radius(res, coverage=0.99)
        r100 = quantizer.choose_radius(res, coverage=1.0)
        assert r99 == quantizer.MIN_RADIUS
        assert r100 == 1024

    def test_empty_input(self):
        assert quantizer.choose_radius(np.empty(0, np.int64)) == quantizer.MIN_RADIUS

    def test_rejects_bad_coverage(self):
        with pytest.raises(ValueError, match="coverage"):
            quantizer.choose_radius(np.zeros(4, np.int64), coverage=0.0)


def _codes(res, radius):
    """``codes_from_residuals`` on one slab, as (codes, unpredictable
    mask); the outliers it keeps are the masked residuals."""
    mapped = quantizer.codes_from_residuals([(0, res)], res.size, radius)
    unpred = np.zeros(res.size, dtype=bool)
    unpred[mapped.unpredictable] = True
    assert np.array_equal(mapped.outliers, res[unpred])
    return mapped.codes, unpred


class TestCodes:
    def test_sentinel_layout(self):
        res = np.array([0, 5, -5, 31, -31, 32, -32, 1000], dtype=np.int64)
        codes, unpred = _codes(res, 32)
        assert list(unpred) == [False] * 5 + [True] * 3
        assert (codes[unpred] == 0).all()
        assert (codes[~unpred] == res[~unpred] + 32).all()
        assert codes[~unpred].min() >= 1

    def test_roundtrip(self):
        res = np.array([0, 5, -5, 100, -100], dtype=np.int64)
        codes, unpred = _codes(res, 32)
        back = residuals_from_codes(codes, 32, res[unpred])
        assert np.array_equal(back, res)

    def test_mismatched_channel_rejected(self):
        # Codes [0, 33] at radius 32, as the reader sees them: symbol
        # ranks into the code table [0, 33], rank 0 the sentinel.
        symbols = np.array([0, 33], dtype=np.int64)
        with pytest.raises(ValueError, match="unpredictable"):
            predictors.reconstruct(
                np.array([0, 1], np.int32), symbols - 32, (2,), "lorenzo",
                0.5, np.float64, sentinel=0,
                unpredictable=np.empty(0, np.int64),
            )

    @given(seed=st.integers(0, 2**32 - 1),
           radius=st.sampled_from([16, 64, 1024, 32768]))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, seed, radius):
        rng = np.random.default_rng(seed)
        res = (rng.standard_normal(500) * radius).astype(np.int64)
        codes, unpred = _codes(res, radius)
        back = residuals_from_codes(codes, radius, res[unpred])
        assert np.array_equal(back, res)
