"""MGARD-like multilevel codec: bound guarantee, sections, schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import generate
from repro.multilevel import MultilevelCodec, SecureMultilevelCompressor


def _max_err(a, b):
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))


class TestBound:
    @pytest.mark.parametrize("eb", [1e-1, 1e-3, 1e-5])
    def test_smooth_field(self, smooth_field, eb):
        codec = MultilevelCodec(eb)
        sections, _ = codec.encode(smooth_field)
        assert _max_err(codec.decode(sections), smooth_field) <= eb

    def test_noisy_field(self, noisy_field):
        codec = MultilevelCodec(1e-3)
        sections, _ = codec.encode(noisy_field)
        assert _max_err(codec.decode(sections), noisy_field) <= 1e-3

    @pytest.mark.parametrize("ndim", [1, 2, 3, 4])
    def test_dimensionalities(self, rng, ndim):
        shape = (33, 17, 9, 6)[:ndim]
        data = rng.standard_normal(shape).astype(np.float32)
        codec = MultilevelCodec(1e-3)
        sections, _ = codec.encode(data)
        out = codec.decode(sections)
        assert out.shape == data.shape
        assert _max_err(out, data) <= 1e-3

    def test_float64(self, rng):
        data = rng.standard_normal((20, 20))
        codec = MultilevelCodec(1e-10)
        sections, _ = codec.encode(data)
        out = codec.decode(sections)
        assert out.dtype == np.float64
        assert _max_err(out, data) <= 1e-10

    def test_sub_resolution_bound_rejected(self):
        data = (2.0e4 + np.arange(64, dtype=np.float32)).reshape(8, 8)
        with pytest.raises(ValueError, match="resolution"):
            MultilevelCodec(1e-5).encode(data)

    def test_odd_shapes(self, rng):
        data = rng.standard_normal((13, 21, 9)).astype(np.float32)
        codec = MultilevelCodec(1e-2)
        sections, _ = codec.encode(data)
        assert _max_err(codec.decode(sections), data) <= 1e-2

    @given(seed=st.integers(0, 2**32 - 1),
           eb=st.sampled_from([1e-1, 1e-2, 1e-4]))
    @settings(max_examples=30, deadline=None)
    def test_bound_property(self, seed, eb):
        gen = np.random.default_rng(seed)
        shape = tuple(gen.integers(2, 24, size=int(gen.integers(1, 4))))
        data = gen.standard_normal(shape).astype(np.float32)
        codec = MultilevelCodec(eb)
        sections, _ = codec.encode(data)
        out = codec.decode(sections)
        assert out.shape == data.shape
        assert _max_err(out, data) <= eb


class TestStructure:
    def test_sections_scheme_compatible(self, smooth_field):
        sections, _ = MultilevelCodec(1e-3).encode(smooth_field)
        assert set(sections) == {
            "meta", "tree", "codes", "unpred", "coeffs", "exact", "aux"
        }

    def test_stats(self, smooth_field):
        _, stats = MultilevelCodec(1e-3).encode(smooth_field)
        assert stats.shape == smooth_field.shape
        assert stats.levels >= 1
        assert stats.n_details > 0
        assert 0.0 <= stats.tree_fraction_of_quant <= 1.0

    def test_multilevel_beats_flat_on_smooth(self, smooth_field):
        """The decomposition's reason to exist: smooth data costs far
        fewer bits than a 0-level flat quantization."""
        full = MultilevelCodec(1e-4)
        flat = MultilevelCodec(1e-4, max_levels=0)
        s_full, _ = full.encode(smooth_field)
        s_flat, _ = flat.encode(smooth_field)
        import zlib
        from repro.core.container import pack_sections
        z_full = len(zlib.compress(pack_sections(s_full)))
        z_flat = len(zlib.compress(pack_sections(s_flat)))
        assert z_full < z_flat

    def test_rejects_bad_input(self):
        codec = MultilevelCodec(1e-3)
        with pytest.raises(TypeError):
            codec.encode(np.zeros(8, dtype=np.int32))
        with pytest.raises(ValueError):
            codec.encode(np.zeros((2,) * 5, dtype=np.float32))
        with pytest.raises(ValueError):
            MultilevelCodec(0.0)

    def test_meta_corruption(self, smooth_field):
        codec = MultilevelCodec(1e-3)
        sections, _ = codec.encode(smooth_field)
        bad = dict(sections)
        bad["meta"] = b"XXXX" + sections["meta"][4:]
        with pytest.raises(ValueError, match="magic"):
            codec.decode(bad)
        short = dict(sections)
        short["unpred"] = sections["unpred"][:12]
        with pytest.raises(ValueError):
            codec.decode(short)


class TestSecurePipeline:
    @pytest.mark.parametrize("scheme", ["none", "cmpr_encr", "encr_quant",
                                        "encr_huffman"])
    def test_schemes(self, scheme, smooth_field, key):
        smc = SecureMultilevelCompressor(scheme, 1e-3, key=key)
        out = smc.decompress(smc.compress(smooth_field))
        assert _max_err(out, smooth_field) <= 1e-3
        assert smc.last_stats is not None

    def test_wrong_key(self, smooth_field, key):
        writer = SecureMultilevelCompressor("encr_huffman", 1e-3, key=key)
        blob = writer.compress(smooth_field)
        reader = SecureMultilevelCompressor("encr_huffman", 1e-3,
                                            key=bytes(16))
        with pytest.raises(ValueError):
            out = reader.decompress(blob)
            if _max_err(out, smooth_field) <= 1e-3:
                raise AssertionError("wrong key decoded the field")

    def test_authenticated(self, smooth_field, key):
        smc = SecureMultilevelCompressor("encr_huffman", 1e-3, key=key,
                                         authenticate=True)
        blob = smc.compress(smooth_field)
        assert _max_err(smc.decompress(blob), smooth_field) <= 1e-3
        tampered = bytearray(blob)
        tampered[10] ^= 1
        with pytest.raises(ValueError):
            smc.decompress(bytes(tampered))

    def test_seeded_ctr_refused(self, smooth_field, key):
        smc = SecureMultilevelCompressor(
            "encr_huffman", 1e-3, key=key, cipher_mode="ctr",
            random_state=np.random.default_rng(1),
        )
        with pytest.raises(ValueError, match="nonce"):
            smc.compress(smooth_field)

    def test_encr_quant_collapse_transfers(self, key):
        """The paper's Encr-Quant caveat holds for the third codec."""
        data = generate("q2", size="tiny")
        sizes = {}
        for scheme in ("none", "encr_quant", "encr_huffman"):
            smc = SecureMultilevelCompressor(
                scheme, 1e-3, key=key if scheme != "none" else None
            )
            sizes[scheme] = len(smc.compress(data))
        assert sizes["encr_quant"] > 1.3 * sizes["none"]
        assert sizes["encr_huffman"] <= sizes["none"] + 64
