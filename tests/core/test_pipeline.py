"""The SecureCompressor façade."""

import math

import numpy as np
import pytest

from repro.core import schemes, trace
from repro.core.pipeline import SecureCompressor

KEYED_SCHEMES = sorted(n for n, s in schemes.SCHEMES.items() if s.requires_key)


def _max_err(a, b):
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))


class _EncryptsTwice(schemes.Scheme):
    """A scheme that breaks the nonce rule: two sections, one nonce."""

    def protect(self, frame_sections, cipher, iv, mode, tracer=None):
        return {
            name: cipher.encrypt(
                frame_sections[name], mode=mode, iv=iv
            ).ciphertext
            for name in ("tree", "codes")
        }

    def unprotect(self, sections, cipher, iv, mode, tracer=None):
        raise NotImplementedError


class TestRoundTrips:
    @pytest.mark.parametrize("scheme", ["none", "cmpr_encr", "encr_quant",
                                        "encr_huffman"])
    def test_all_schemes(self, scheme, smooth_field, key):
        sc = SecureCompressor(scheme=scheme, error_bound=1e-4, key=key)
        result = sc.compress(smooth_field)
        out = sc.decompress(result.container)
        assert _max_err(out, smooth_field) <= 1e-4
        assert result.scheme == scheme
        assert result.compressed_bytes == len(result.container)

    @pytest.mark.parametrize("mode", ["cbc", "ctr"])
    def test_cipher_modes(self, mode, smooth_field, key):
        sc = SecureCompressor("encr_huffman", 1e-3, key=key, cipher_mode=mode)
        out = sc.decompress(sc.compress(smooth_field).container)
        assert _max_err(out, smooth_field) <= 1e-3

    def test_deterministic_with_seeded_rng(self, smooth_field, key):
        a = SecureCompressor("encr_huffman", 1e-3, key=key,
                             random_state=np.random.default_rng(5))
        b = SecureCompressor("encr_huffman", 1e-3, key=key,
                             random_state=np.random.default_rng(5))
        assert a.compress(smooth_field).container == b.compress(
            smooth_field
        ).container

    def test_fresh_ivs_differ(self, smooth_field, key):
        sc = SecureCompressor("encr_huffman", 1e-3, key=key)
        a = sc.compress(smooth_field).container
        b = sc.compress(smooth_field).container
        assert a != b  # the IV (and thus tree ciphertext) must differ

    def test_decompress_stage_seconds(self, smooth_field, key):
        sc = SecureCompressor("cmpr_encr", 1e-3, key=key)
        result = sc.compress(smooth_field)
        tr = trace.Tracer()
        out = sc.decompress(result.container, tracer=tr)
        assert _max_err(out, smooth_field) <= 1e-3
        times = trace.stage_seconds(tr)
        assert "decrypt" in times
        assert "huffman_decode" in times

    @pytest.mark.parametrize("scheme", ["cmpr_encr", "encr_quant",
                                        "encr_huffman", "encr_huffman_raw"])
    def test_ctr_all_schemes(self, scheme, smooth_field, key):
        sc = SecureCompressor(scheme, 1e-4, key=key, cipher_mode="ctr")
        out = sc.decompress(sc.compress(smooth_field).container)
        assert _max_err(out, smooth_field) <= 1e-4

    def test_empty_field_rejected_in_both_modes(self, key):
        # The SZ substrate refuses empty arrays by contract; both cipher
        # modes must surface that refusal before touching the cipher
        # (zero-length *ciphertext* round trips live in tests/crypto/).
        empty = np.empty((0,), dtype=np.float32)
        for mode in ("cbc", "ctr"):
            sc = SecureCompressor("cmpr_encr", 1e-3, key=key, cipher_mode=mode)
            with pytest.raises(ValueError, match="empty"):
                sc.compress(empty)


class TestCtrNonceReuseGuard:
    def test_seeded_ctr_refused_by_default(self, key):
        with pytest.raises(ValueError, match="nonce"):
            SecureCompressor("encr_huffman", 1e-3, key=key, cipher_mode="ctr",
                             random_state=np.random.default_rng(1))

    def test_explicit_optin_allows_seeded_ctr(self, smooth_field, key):
        a = SecureCompressor("encr_huffman", 1e-3, key=key, cipher_mode="ctr",
                             random_state=np.random.default_rng(5),
                             allow_nonce_reuse=True)
        b = SecureCompressor("encr_huffman", 1e-3, key=key, cipher_mode="ctr",
                             random_state=np.random.default_rng(5),
                             allow_nonce_reuse=True)
        assert a.compress(smooth_field).container == b.compress(
            smooth_field
        ).container

    def test_seeded_cbc_unaffected(self, smooth_field, key):
        sc = SecureCompressor("encr_huffman", 1e-3, key=key,
                              random_state=np.random.default_rng(5))
        out = sc.decompress(sc.compress(smooth_field).container)
        assert _max_err(out, smooth_field) <= 1e-3

    def test_os_entropy_ctr_needs_no_flag(self, smooth_field, key):
        sc = SecureCompressor("encr_huffman", 1e-3, key=key, cipher_mode="ctr")
        out = sc.decompress(sc.compress(smooth_field).container)
        assert _max_err(out, smooth_field) <= 1e-3

    def test_second_encrypt_under_compress_nonce_raises(
        self, monkeypatch, smooth_field, key
    ):
        # The executable nonce rule: in CTR mode a scheme gets a
        # one-shot view of the cipher, so a second encryption under
        # the compress's nonce fails and no container comes back.
        monkeypatch.setitem(schemes.SCHEMES, "encrypts_twice",
                            _EncryptsTwice("encrypts_twice", 250))
        sc = SecureCompressor("encrypts_twice", 1e-3, key=key,
                              cipher_mode="ctr")
        with pytest.raises(RuntimeError, match="already consumed"):
            sc.compress(smooth_field)


class TestCtrKeystreamSize:
    @pytest.mark.parametrize("scheme", KEYED_SCHEMES)
    def test_keystream_blocks_equal_ciphertext_blocks(
        self, scheme, smooth_field, key
    ):
        # One CTR compress makes exactly ceil(n / 16) keystream blocks
        # for the n bytes its encrypt span takes in — no more.
        tr = trace.Tracer()
        SecureCompressor(scheme, 1e-4, key=key, cipher_mode="ctr").compress(
            smooth_field, tracer=tr
        )
        doc = tr.export()
        stack, used = list(doc["roots"]), 0
        while stack:
            span = stack.pop()
            if span["name"] == "encrypt":
                used += math.ceil(span["bytes_in"] / 16)
            stack.extend(span["children"])
        assert used > 0
        assert doc["counters"]["aes.blocks_keystream"] == used


class TestResultStats:
    def test_encrypted_bytes_ordering(self, smooth_field, key):
        sizes = {}
        for scheme in ("none", "encr_huffman", "encr_quant", "cmpr_encr"):
            sc = SecureCompressor(scheme, 1e-4, key=key)
            sizes[scheme] = sc.compress(smooth_field).encrypted_bytes
        assert sizes["none"] == 0
        assert 0 < sizes["encr_huffman"] < sizes["encr_quant"] <= sizes["cmpr_encr"]

    def test_sz_stats_passthrough(self, smooth_field, key):
        result = SecureCompressor("encr_huffman", 1e-4, key=key).compress(
            smooth_field
        )
        assert result.sz_stats.n_elements == smooth_field.size

    def test_times_include_scheme_stages(self, smooth_field, key):
        tr = trace.Tracer()
        SecureCompressor("encr_quant", 1e-4, key=key).compress(
            smooth_field, tracer=tr
        )
        times = trace.stage_seconds(tr)
        assert "encrypt" in times
        assert "lossless" in times
        assert "predict" in times


class TestValidation:
    def test_key_required(self):
        with pytest.raises(ValueError, match="requires"):
            SecureCompressor(scheme="encr_huffman", key=None)

    def test_none_scheme_needs_no_key(self, smooth_field):
        sc = SecureCompressor(scheme="none")
        out = sc.decompress(sc.compress(smooth_field).container)
        assert _max_err(out, smooth_field) <= 1e-3

    def test_unknown_scheme(self, key):
        with pytest.raises(ValueError, match="unknown scheme"):
            SecureCompressor(scheme="double_rot13", key=key)

    def test_unknown_mode(self, key):
        with pytest.raises(ValueError, match="mode"):
            SecureCompressor("encr_huffman", key=key, cipher_mode="xts")

    def test_scheme_mismatch_on_decompress(self, smooth_field, key):
        writer = SecureCompressor("encr_huffman", 1e-3, key=key)
        reader = SecureCompressor("cmpr_encr", 1e-3, key=key)
        blob = writer.compress(smooth_field).container
        with pytest.raises(ValueError, match="scheme"):
            reader.decompress(blob)

    def test_wrong_key_decompress_fails(self, smooth_field, key):
        writer = SecureCompressor("cmpr_encr", 1e-3, key=key)
        blob = writer.compress(smooth_field).container
        reader = SecureCompressor("cmpr_encr", 1e-3, key=bytes(16))
        with pytest.raises(ValueError):
            reader.decompress(blob)

    def test_corrupt_container_raises_value_error(self, smooth_field, key):
        sc = SecureCompressor("encr_huffman", 1e-3, key=key)
        blob = bytearray(sc.compress(smooth_field).container)
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(ValueError):
            sc.decompress(bytes(blob))
