"""Key rotation without recompression."""

import numpy as np
import pytest

from repro.core.pipeline import SecureCompressor
from repro.core.rekey import rotate_key
from repro.sz import SZCompressor

NEW_KEY = b"fresh-key-2026!!"


def _max_err(a, b):
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))


class TestRotateKey:
    @pytest.mark.parametrize("scheme", ["cmpr_encr", "encr_quant",
                                        "encr_huffman", "encr_huffman_raw"])
    def test_rotation_roundtrip(self, scheme, smooth_field, key):
        writer = SecureCompressor(scheme, 1e-3, key=key)
        blob = writer.compress(smooth_field).container
        rotated = rotate_key(blob, key, NEW_KEY)
        reader = SecureCompressor(scheme, 1e-3, key=NEW_KEY)
        out = reader.decompress(rotated)
        assert _max_err(out, smooth_field) <= 1e-3

    def test_old_key_no_longer_works(self, smooth_field, key):
        writer = SecureCompressor("encr_huffman", 1e-3, key=key)
        rotated = rotate_key(writer.compress(smooth_field).container,
                             key, NEW_KEY)
        stale = SecureCompressor("encr_huffman", 1e-3, key=key)
        with pytest.raises(ValueError):
            out = stale.decompress(rotated)
            if _max_err(out, smooth_field) <= 1e-3:
                raise AssertionError("old key still decodes")

    def test_wrong_old_key_rejected(self, smooth_field, key):
        writer = SecureCompressor("cmpr_encr", 1e-3, key=key)
        blob = writer.compress(smooth_field).container
        with pytest.raises(ValueError):
            rotate_key(blob, bytes(16), NEW_KEY)

    def test_seeded_ctr_refused(self, smooth_field, key):
        writer = SecureCompressor("encr_huffman", 1e-3, key=key,
                                  cipher_mode="ctr")
        blob = writer.compress(smooth_field).container
        with pytest.raises(ValueError, match="nonce"):
            rotate_key(blob, key, NEW_KEY,
                       random_state=np.random.default_rng(5))

    def test_seeded_cbc_rotation_deterministic(self, smooth_field, key):
        writer = SecureCompressor("encr_huffman", 1e-3, key=key)
        blob = writer.compress(smooth_field).container
        a, b = (rotate_key(blob, key, NEW_KEY,
                           random_state=np.random.default_rng(5))
                for _ in range(2))
        assert a == b

    def test_none_scheme_passthrough(self, smooth_field):
        writer = SecureCompressor("none", 1e-3)
        blob = writer.compress(smooth_field).container
        assert rotate_key(blob, bytes(16), NEW_KEY) == blob

    def test_authenticated_rotation(self, smooth_field, key):
        writer = SecureCompressor("encr_huffman", 1e-3, key=key,
                                  authenticate=True)
        blob = writer.compress(smooth_field).container
        rotated = rotate_key(blob, key, NEW_KEY)
        assert rotated[:4] == b"SECA"
        reader = SecureCompressor("encr_huffman", 1e-3, key=NEW_KEY,
                                  authenticate=True)
        assert _max_err(reader.decompress(rotated), smooth_field) <= 1e-3

    def test_fresh_iv_after_rotation(self, smooth_field, key):
        from repro.core.container import parse_container

        writer = SecureCompressor("encr_huffman", 1e-3, key=key)
        blob = writer.compress(smooth_field).container
        rotated = rotate_key(blob, key, NEW_KEY)
        assert parse_container(blob).iv != parse_container(rotated).iv

    def test_rotation_is_cheap_for_encr_huffman(
        self, monkeypatch, smooth_field, key
    ):
        """Rotation must not redo SZ work: it re-seals the container's
        sections without running an SZ stage."""
        writer = SecureCompressor("encr_huffman", 1e-3, key=key)
        blob = writer.compress(smooth_field).container

        def no_sz(*args, **kwargs):
            raise AssertionError("rotation ran an SZ stage")

        with monkeypatch.context() as patch:
            patch.setattr(SZCompressor, "compress", no_sz)
            patch.setattr(SZCompressor, "decompress", no_sz)
            rotated = rotate_key(blob, key, NEW_KEY)
        reader = SecureCompressor("encr_huffman", 1e-3, key=NEW_KEY)
        assert _max_err(reader.decompress(rotated), smooth_field) <= 1e-3
