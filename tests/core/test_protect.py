"""The codec-agnostic protect/unprotect helpers."""

import numpy as np
import pytest

from repro.core.protect import protect_sections, unprotect_container
from repro.sz import SZCompressor


@pytest.fixture(scope="module")
def sections(smooth_field):
    return SZCompressor(1e-3).compress(smooth_field).sections


class TestProtectHelpers:
    @pytest.mark.parametrize("scheme", ["none", "cmpr_encr", "encr_quant",
                                        "encr_huffman"])
    def test_roundtrip(self, scheme, sections, key):
        blob = protect_sections(sections, scheme, key=key)
        back = unprotect_container(blob, key=key)
        assert back == dict(sections)

    def test_expected_scheme_enforced(self, sections, key):
        blob = protect_sections(sections, "encr_huffman", key=key)
        with pytest.raises(ValueError, match="expected"):
            unprotect_container(blob, key=key, expected_scheme="cmpr_encr")

    def test_scheme_autodetected(self, sections, key):
        blob = protect_sections(sections, "cmpr_encr", key=key)
        assert unprotect_container(blob, key=key) == dict(sections)

    def test_missing_key_rejected(self, sections):
        with pytest.raises(ValueError, match="requires a key"):
            protect_sections(sections, "encr_huffman")
        blob = protect_sections(sections, "none")
        assert unprotect_container(blob) == dict(sections)

    def test_key_needed_to_read_encrypted(self, sections, key):
        blob = protect_sections(sections, "encr_huffman", key=key)
        with pytest.raises(ValueError, match="requires a key"):
            unprotect_container(blob)

    def test_authentication(self, sections, key):
        blob = protect_sections(sections, "none", key=key, authenticate=True)
        assert blob[:4] == b"SECA"
        assert unprotect_container(blob, key=key) == dict(sections)
        with pytest.raises(ValueError):
            unprotect_container(blob[:-1] + b"\x00", key=key)

    def test_deterministic_with_seed(self, sections, key):
        a = protect_sections(sections, "encr_huffman", key=key,
                             random_state=np.random.default_rng(9))
        b = protect_sections(sections, "encr_huffman", key=key,
                             random_state=np.random.default_rng(9))
        assert a == b

    def test_seeded_ctr_refused(self, sections, key):
        # A seeded generator replays its nonces: two calls seeded alike
        # would encrypt different sections under one (key, nonce).
        with pytest.raises(ValueError, match="nonce"):
            protect_sections(sections, "encr_huffman", key=key,
                             cipher_mode="ctr",
                             random_state=np.random.default_rng(9))

    def test_ctr_mode(self, sections, key):
        blob = protect_sections(sections, "cmpr_encr", key=key,
                                cipher_mode="ctr")
        assert unprotect_container(blob, key=key) == dict(sections)
