"""Point-wise relative error-bound mode (extension; SZ supports it via
the standard logarithmic pre-transform)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import SecureCompressor
from repro.sz import SZCompressor
from repro.sz.quantizer import ErrorBound


def _mixed_field(seed=0, shape=(20, 20, 20), zero_count=300):
    rng = np.random.default_rng(seed)
    data = (
        rng.standard_normal(shape)
        * np.exp(rng.uniform(-8.0, 8.0, shape))
    ).astype(np.float32)
    flat = data.reshape(-1)
    flat[rng.choice(flat.size, zero_count, replace=False)] = 0.0
    return data


def _max_rel(original, decompressed):
    nz = original != 0
    a = original[nz].astype(np.float64)
    b = decompressed[nz].astype(np.float64)
    return float(np.max(np.abs(b - a) / np.abs(a)))


class TestPwRelBound:
    @pytest.mark.parametrize("r", [1e-1, 1e-2, 1e-4])
    def test_relative_bound_holds(self, r):
        data = _mixed_field()
        comp = SZCompressor(ErrorBound(r, "pw_rel"))
        out = comp.decompress(comp.compress(data))
        assert _max_rel(data, out) <= r

    def test_zeros_restored_exactly(self):
        data = _mixed_field()
        comp = SZCompressor(ErrorBound(1e-2, "pw_rel"))
        out = comp.decompress(comp.compress(data))
        zeros = data == 0
        assert np.array_equal(out[zeros], data[zeros])

    def test_signs_preserved(self):
        data = _mixed_field(seed=1)
        comp = SZCompressor(ErrorBound(1e-2, "pw_rel"))
        out = comp.decompress(comp.compress(data))
        assert np.array_equal(np.sign(out), np.sign(data))

    def test_wide_dynamic_range(self):
        # 20+ orders of magnitude: the whole point of pw_rel over abs.
        rng = np.random.default_rng(2)
        data = (10.0 ** rng.uniform(-12, 12, 4096)).astype(np.float64)
        comp = SZCompressor(ErrorBound(1e-3, "pw_rel"))
        out = comp.decompress(comp.compress(data))
        assert _max_rel(data, out) <= 1e-3

    def test_float64(self):
        rng = np.random.default_rng(3)
        data = np.exp(rng.uniform(-40, 40, (16, 16)))
        comp = SZCompressor(ErrorBound(1e-9, "pw_rel"))
        out = comp.decompress(comp.compress(data))
        assert out.dtype == np.float64
        assert _max_rel(data, out) <= 1e-9

    def test_all_zero_field(self):
        data = np.zeros((8, 8), dtype=np.float32)
        comp = SZCompressor(ErrorBound(1e-2, "pw_rel"))
        out = comp.decompress(comp.compress(data))
        assert np.array_equal(out, data)

    def test_better_cr_than_abs_on_wide_range(self):
        # On data spanning many decades, pw_rel at a modest target
        # beats the absolute bound needed to match its small-value
        # fidelity.
        rng = np.random.default_rng(4)
        data = (10.0 ** rng.uniform(-6, 6, (24, 24, 24))).astype(np.float32)
        pw = SZCompressor(ErrorBound(1e-2, "pw_rel")).compress(data)
        # An abs bound protecting the smallest values to 1% would be
        # ~1e-8 — far more bits than the log-domain representation.
        ab = SZCompressor(ErrorBound(1e-8, "abs")).compress(data)
        assert pw.payload_bytes < ab.payload_bytes

    def test_aux_corruption_detected(self):
        data = _mixed_field(seed=5)
        comp = SZCompressor(ErrorBound(1e-2, "pw_rel"))
        frame = comp.compress(data)
        frame.sections["aux"] = frame.sections["aux"][:-3]
        with pytest.raises(ValueError):
            comp.decompress(frame)

    def test_through_schemes(self, key):
        data = _mixed_field(seed=6)
        for scheme in ("none", "cmpr_encr", "encr_huffman"):
            sc = SecureCompressor(
                scheme, ErrorBound(1e-3, "pw_rel"),
                key=key if scheme != "none" else None,
            )
            out = sc.decompress(sc.compress(data).container)
            assert _max_rel(data, out) <= 1e-3, scheme


@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.sampled_from([1e-1, 1e-2, 1e-3]),
)
@settings(max_examples=25, deadline=None)
def test_pw_rel_property(seed, r):
    rng = np.random.default_rng(seed)
    data = (
        rng.standard_normal(400) * 10.0 ** rng.uniform(-5, 5, 400)
    ).astype(np.float32)
    comp = SZCompressor(ErrorBound(r, "pw_rel"))
    out = comp.decompress(comp.compress(data))
    assert _max_rel(data, out) <= r
    zeros = data == 0
    assert np.array_equal(out[zeros], data[zeros])


class TestPwRelTrace:
    def test_exact_and_pwrel_run_inside_reconstruct(self, monkeypatch):
        """The exact channel and the pw_rel inverse are timed by the
        ``reconstruct`` stage, and ``sz.decompress``'s ``bytes_out``
        counts the output dtype, not the float64 working copy."""
        from repro.core import trace
        from repro.sz import compressor as szc

        tracer = trace.Tracer()
        seen = []

        def spy(real):
            def wrapped(*args):
                stack = tracer._span_stack()
                seen.append((real.__name__,
                             stack[-1].name if stack else None))
                return real(*args)
            return wrapped

        for name in ("_unpack_exact", "_pwrel_inverse"):
            monkeypatch.setattr(szc, name, spy(getattr(szc, name)))
        comp = SZCompressor(ErrorBound(1e-2, "pw_rel"))
        out = comp.decompress(comp.compress(_mixed_field()), tracer=tracer)
        assert seen == [("_unpack_exact", "reconstruct"),
                        ("_pwrel_inverse", "reconstruct")]
        (root,) = tracer.roots
        assert root.name == "sz.decompress"
        assert out.dtype == np.float32
        assert root.bytes_out == out.nbytes
