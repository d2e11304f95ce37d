"""The SZ compressor façade: roundtrips, the error-bound guarantee,
frame structure and statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import trace
from repro.datasets import generate
from repro.sz import SZCompressor, predictors
from repro.sz.compressor import SECTION_ORDER
from repro.sz.quantizer import ErrorBound


def _max_err(a, b):
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))


class TestRoundTrip:
    @pytest.mark.parametrize("eb", [1e-2, 1e-4, 1e-6])
    def test_smooth_field(self, smooth_field, eb):
        comp = SZCompressor(eb)
        out = comp.decompress(comp.compress(smooth_field))
        assert out.shape == smooth_field.shape
        assert out.dtype == smooth_field.dtype
        assert _max_err(out, smooth_field) <= eb

    @pytest.mark.parametrize("eb", [1e-2, 1e-5])
    def test_noisy_field(self, noisy_field, eb):
        comp = SZCompressor(eb)
        out = comp.decompress(comp.compress(noisy_field))
        assert _max_err(out, noisy_field) <= eb

    def test_sparse_field(self, sparse_field):
        comp = SZCompressor(1e-5)
        out = comp.decompress(comp.compress(sparse_field))
        assert _max_err(out, sparse_field) <= 1e-5

    @pytest.mark.parametrize("predictor", ["lorenzo", "mean", "regression"])
    def test_each_predictor(self, smooth_field, predictor):
        comp = SZCompressor(1e-4, predictor=predictor)
        frame = comp.compress(smooth_field)
        assert frame.stats.predictor == predictor
        out = comp.decompress(frame)
        assert _max_err(out, smooth_field) <= 1e-4

    @pytest.mark.parametrize("ndim", [1, 2, 3, 4])
    def test_each_dimensionality(self, rng, ndim):
        shape = (7, 9, 5, 6)[:ndim]
        data = rng.standard_normal(shape).astype(np.float32)
        comp = SZCompressor(1e-3)
        out = comp.decompress(comp.compress(data))
        assert out.shape == data.shape
        assert _max_err(out, data) <= 1e-3

    def test_float64(self, rng):
        data = rng.standard_normal((12, 12, 12))
        comp = SZCompressor(1e-9)
        out = comp.decompress(comp.compress(data))
        assert out.dtype == np.float64
        assert _max_err(out, data) <= 1e-9

    def test_relative_bound(self, smooth_field):
        comp = SZCompressor(ErrorBound(1e-3, "rel"))
        frame = comp.compress(smooth_field)
        value_range = float(smooth_field.max() - smooth_field.min())
        out = comp.decompress(frame)
        assert _max_err(out, smooth_field) <= 1e-3 * value_range
        assert frame.stats.eb_abs == pytest.approx(1e-3 * value_range)

    def test_constant_field(self):
        data = np.full((10, 10), 3.5, dtype=np.float32)
        comp = SZCompressor(1e-4)
        out = comp.decompress(comp.compress(data))
        assert _max_err(out, data) <= 1e-4

    def test_tight_bound_with_exact_channel(self, rng):
        # eb below float32 ulp for these magnitudes: the exact channel
        # must keep the user-facing bound intact anyway.
        data = (rng.standard_normal(4096) * 8).astype(np.float32)
        comp = SZCompressor(1e-7)
        frame = comp.compress(data)
        out = comp.decompress(frame)
        assert _max_err(out, data) <= 1e-7


class TestFrameStructure:
    def test_sections_present(self, smooth_field):
        frame = SZCompressor(1e-3).compress(smooth_field)
        assert set(frame.sections) == set(SECTION_ORDER)

    def test_stats_consistency(self, smooth_field):
        frame = SZCompressor(1e-3).compress(smooth_field)
        stats = frame.stats
        assert stats.n_elements == smooth_field.size
        assert 0 <= stats.unpredictable_count <= stats.n_elements
        assert stats.predictable_count + stats.unpredictable_count == stats.n_elements
        assert 0.0 <= stats.predictable_fraction <= 1.0
        assert stats.quant_array_bytes == (
            stats.section_bytes["tree"] + stats.section_bytes["codes"]
        )
        assert 0.0 <= stats.tree_fraction_of_quant <= 1.0
        assert frame.payload_bytes == sum(stats.section_bytes.values())

    def test_stage_times_recorded(self, smooth_field):
        tr = trace.Tracer()
        SZCompressor(1e-3).compress(smooth_field, tracer=tr)
        times = trace.stage_seconds(tr)
        for stage in ("quantize", "predict", "huffman_build",
                      "huffman_encode", "side_channels"):
            assert stage in times
            assert times[stage] >= 0.0

    def test_decompress_stage_times(self, smooth_field):
        comp = SZCompressor(1e-3)
        frame = comp.compress(smooth_field)
        tr = trace.Tracer()
        comp.decompress(frame, tracer=tr)
        assert set(trace.stage_seconds(tr)) == {
            "huffman_decode", "reconstruct"
        }

    def test_coeffs_only_for_regression(self, smooth_field):
        lorenzo = SZCompressor(1e-3, predictor="lorenzo").compress(smooth_field)
        regression = SZCompressor(1e-3, predictor="regression").compress(
            smooth_field
        )
        assert lorenzo.sections["coeffs"] == b""
        assert len(regression.sections["coeffs"]) > 0

    def test_frame_missing_section_rejected(self, smooth_field):
        from repro.sz.compressor import SZFrame
        frame = SZCompressor(1e-3).compress(smooth_field)
        sections = dict(frame.sections)
        del sections["tree"]
        with pytest.raises(ValueError, match="missing"):
            SZFrame(sections=sections, stats=frame.stats)


class TestValidation:
    def test_rejects_bad_dtype(self):
        comp = SZCompressor(1e-3)
        with pytest.raises(TypeError, match="dtype"):
            comp.compress(np.zeros(10, dtype=np.int32))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            SZCompressor(1e-3).compress(np.empty(0, dtype=np.float32))

    def test_rejects_5d(self):
        with pytest.raises(ValueError, match="1-4"):
            SZCompressor(1e-3).compress(np.zeros((2,) * 5, dtype=np.float32))

    def test_rejects_unknown_predictor(self):
        with pytest.raises(ValueError, match="predictor"):
            SZCompressor(1e-3, predictor="dct")

    def test_rejects_tiny_block(self):
        with pytest.raises(ValueError, match="block_size"):
            SZCompressor(1e-3, block_size=1)

    def test_meta_corruption_detected(self, smooth_field):
        comp = SZCompressor(1e-3)
        frame = comp.compress(smooth_field)
        bad = bytearray(frame.sections["meta"])
        bad[0] ^= 0xFF  # break the magic
        frame.sections["meta"] = bytes(bad)
        with pytest.raises(ValueError, match="magic"):
            comp.decompress(frame)

    def test_meta_truncation_detected(self, smooth_field):
        comp = SZCompressor(1e-3)
        frame = comp.compress(smooth_field)
        frame.sections["meta"] = frame.sections["meta"][:10]
        with pytest.raises(ValueError):
            comp.decompress(frame)

    def test_unpred_mismatch_detected(self, noisy_field):
        comp = SZCompressor(1e-6, predictor="lorenzo")
        frame = comp.compress(noisy_field)
        if frame.stats.unpredictable_count == 0:
            pytest.skip("no unpredictable points in this configuration")
        from repro.sz import intcodec
        frame.sections["unpred"] = intcodec.byteplane_encode(
            np.zeros(1, dtype=np.int64)
        )
        with pytest.raises(ValueError):
            comp.decompress(frame)


class TestCompressionBehaviour:
    def test_looser_bound_compresses_better(self, smooth_field):
        tight = SZCompressor(1e-6).compress(smooth_field).payload_bytes
        loose = SZCompressor(1e-2).compress(smooth_field).payload_bytes
        assert loose < tight

    def test_smooth_beats_noise(self, smooth_field, noisy_field):
        eb = 1e-4
        smooth_bpp = (
            SZCompressor(eb).compress(smooth_field).payload_bytes
            / smooth_field.size
        )
        noisy_bpp = (
            SZCompressor(eb).compress(noisy_field).payload_bytes
            / noisy_field.size
        )
        assert smooth_bpp < noisy_bpp

    def test_auto_selects_reasonably(self, smooth_field):
        frame = SZCompressor(1e-4, predictor="auto").compress(smooth_field)
        assert frame.stats.predictor in ("lorenzo", "mean", "regression")


#: The full-grid pass each candidate predictor makes once.
_FULL_PASS = {"lorenzo": "lorenzo_residuals", "mean": "modal_value",
              "regression": "regression_fit"}


@pytest.mark.parametrize("predictor", ["auto", *predictors.PREDICTORS])
def test_each_candidate_predicts_once(monkeypatch, predictor):
    """One compress runs each candidate over the full grid at most once:
    the probe radius reuses Lorenzo's residuals and the winner's
    residuals, model or modal value are quantized without a recompute.
    ``auto`` still scores all three candidates on their samples."""
    seen = dict.fromkeys(_FULL_PASS.values(), 0)
    for fn in seen:
        def spy(*args, _real=getattr(predictors, fn), _fn=fn, **kw):
            seen[_fn] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(predictors, fn, spy)
    data = np.asarray(generate("q2", size="tiny"))
    before = trace.counters_snapshot().get("predict.sample_points", 0)
    SZCompressor(1e-4, predictor=predictor).compress(data)
    after = trace.counters_snapshot().get("predict.sample_points", 0)
    assert seen == {fn: int(predictor in ("auto", name))
                    for name, fn in _FULL_PASS.items()}
    assert after - before == (3 * data.size if predictor == "auto" else 0)


@given(
    seed=st.integers(0, 2**32 - 1),
    eb=st.sampled_from([1e-2, 1e-3, 1e-5]),
    shape=st.sampled_from([(64,), (9, 13), (6, 7, 8)]),
    predictor=st.sampled_from(["auto", "lorenzo", "mean", "regression"]),
)
@settings(max_examples=40, deadline=None)
def test_error_bound_property(seed, eb, shape, predictor):
    """The central invariant: |decompressed - original| <= eb, always."""
    gen = np.random.default_rng(seed)
    data = (gen.standard_normal(shape) * gen.uniform(0.1, 100)).astype(
        np.float32
    )
    comp = SZCompressor(eb, predictor=predictor)
    out = comp.decompress(comp.compress(data))
    assert out.shape == data.shape
    assert _max_err(out, data) <= eb


class TestCoverageParameter:
    def test_lower_coverage_more_unpredictable(self, noisy_field):
        tight = SZCompressor(1e-5, coverage=0.999).compress(noisy_field)
        loose = SZCompressor(1e-5, coverage=0.5).compress(noisy_field)
        assert (
            loose.stats.unpredictable_count
            >= tight.stats.unpredictable_count
        )
        # Both still satisfy the bound, via different channel balances.
        for frame in (tight, loose):
            out = SZCompressor(1e-5).decompress(frame)
            assert _max_err(out, noisy_field) <= 1e-5

    def test_coverage_changes_radius(self, noisy_field):
        tight = SZCompressor(1e-5, coverage=0.9999).compress(noisy_field)
        loose = SZCompressor(1e-5, coverage=0.6).compress(noisy_field)
        assert loose.stats.radius <= tight.stats.radius
