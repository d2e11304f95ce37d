"""The four combination schemes at the section level."""

import numpy as np
import pytest

from repro.core import trace
from repro.core.schemes import SCHEMES, get_scheme
from repro.crypto.aes import AES128
from repro.sz import SZCompressor
from repro.sz.compressor import SECTION_ORDER

IV = bytes(range(16))


@pytest.fixture(scope="module")
def frame(smooth_field):
    return SZCompressor(1e-4).compress(smooth_field)


def _roundtrip(scheme_name, frame, cipher):
    scheme = get_scheme(scheme_name)
    tr = trace.Tracer()
    out = scheme.protect(frame.sections, cipher, IV, "cbc", 6, tr)
    back = scheme.unprotect(out, cipher, IV, "cbc")
    return out, back, trace.stage_seconds(tr)


class TestRegistry:
    def test_names_and_ids(self):
        assert set(SCHEMES) == {
            "none", "cmpr_encr", "encr_quant", "encr_huffman",
            "encr_huffman_raw",
        }
        for name, scheme in SCHEMES.items():
            assert get_scheme(name) is scheme
            assert get_scheme(scheme.scheme_id) is scheme

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            get_scheme("rot13")
        with pytest.raises(ValueError, match="unknown scheme id"):
            get_scheme(77)

    def test_key_requirements(self):
        assert not SCHEMES["none"].requires_key
        assert all(
            SCHEMES[n].requires_key
            for n in ("cmpr_encr", "encr_quant", "encr_huffman")
        )


class TestRoundTrips:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_protect_unprotect(self, name, frame, key):
        cipher = AES128(key)
        _, back, _ = _roundtrip(name, frame, cipher)
        assert back == {k: frame.sections[k] for k in SECTION_ORDER}

    @pytest.mark.parametrize("name", ["cmpr_encr", "encr_quant", "encr_huffman"])
    def test_requires_cipher(self, name, frame):
        scheme = get_scheme(name)
        with pytest.raises(ValueError, match="key"):
            scheme.protect(frame.sections, None, IV, "cbc", 6)

    def test_none_works_without_cipher(self, frame):
        _, back, _ = _roundtrip("none", frame, None)
        assert back["meta"] == frame.sections["meta"]

    @pytest.mark.parametrize("name", ["cmpr_encr", "encr_quant", "encr_huffman"])
    def test_wrong_key_fails(self, name, frame, key):
        scheme = get_scheme(name)
        out = scheme.protect(frame.sections, AES128(key), IV, "cbc", 6)
        wrong = AES128(bytes(16))
        with pytest.raises(ValueError):
            restored = scheme.unprotect(out, wrong, IV, "cbc")
            # If padding happens to validate, the section table must not.
            if restored == {k: frame.sections[k] for k in SECTION_ORDER}:
                raise AssertionError("wrong key decrypted successfully?!")

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_ctr_mode(self, name, frame, key):
        scheme = get_scheme(name)
        cipher = AES128(key) if scheme.requires_key else None
        nonce = b"12345678"
        out = scheme.protect(frame.sections, cipher, nonce, "ctr", 6)
        back = scheme.unprotect(out, cipher, nonce, "ctr")
        assert back == {k: frame.sections[k] for k in SECTION_ORDER}


class TestEncryptionPlacement:
    def test_encrypted_bytes_ordering(self, frame, key):
        """Paper Sec. IV: Encr-Huffman encrypts the least, Cmpr-Encr
        the most (pre-zlib)."""
        huff = SCHEMES["encr_huffman"].encrypted_bytes(frame.sections)
        quant = SCHEMES["encr_quant"].encrypted_bytes(frame.sections)
        full = SCHEMES["cmpr_encr"].encrypted_bytes(frame.sections)
        assert 0 < huff < quant <= full
        assert SCHEMES["none"].encrypted_bytes(frame.sections) == 0

    def test_encr_huffman_encrypts_exactly_the_tree(self, frame):
        assert SCHEMES["encr_huffman"].encrypted_bytes(frame.sections) == len(
            frame.sections["tree"]
        )

    def test_encr_quant_includes_tree_codes_meta(self, frame):
        expected = sum(
            len(frame.sections[k]) for k in ("meta", "tree", "codes")
        )
        assert SCHEMES["encr_quant"].encrypted_bytes(frame.sections) == expected

    def test_stage_times_recorded(self, frame, key):
        cipher = AES128(key)
        for name in ("cmpr_encr", "encr_quant", "encr_huffman"):
            _, _, times = _roundtrip(name, frame, cipher)
            assert "encrypt" in times
            assert "lossless" in times

    def test_cmpr_encr_output_is_ciphertext_only(self, frame, key):
        out, _, _ = _roundtrip("cmpr_encr", frame, AES128(key))
        assert set(out) == {"cipher"}

    def test_white_box_outputs_are_zlib(self, frame, key):
        import zlib
        for name in ("none", "encr_quant", "encr_huffman"):
            cipher = AES128(bytes(16)) if name != "none" else None
            scheme = get_scheme(name)
            out = scheme.protect(frame.sections, cipher, IV, "cbc", 6)
            assert set(out) == {"zblob"}
            zlib.decompress(out["zblob"])  # must be a valid stream


class TestCompressionImpact:
    def test_encr_quant_hurts_ratio_on_compressible_data(self, key):
        """Paper Fig. 5: randomizing the quantization array before zlib
        destroys the lossless stage's leverage on compressible data."""
        from repro.datasets import generate

        data = generate("q2", size="tiny")
        frame = SZCompressor(1e-3).compress(data)
        cipher = AES128(key)
        sizes = {}
        for name in ("none", "cmpr_encr", "encr_quant", "encr_huffman"):
            scheme = get_scheme(name)
            out = scheme.protect(
                frame.sections, cipher if name != "none" else None, IV,
                "cbc", 6,
            )
            sizes[name] = sum(len(v) for v in out.values())
        assert sizes["encr_quant"] > sizes["none"]
        # Encr-Huffman keeps >99% of the baseline CR.
        assert sizes["encr_huffman"] <= sizes["none"] * 1.01
        # Cmpr-Encr adds only padding + header slack.
        assert sizes["cmpr_encr"] <= sizes["none"] * 1.01 + 64
