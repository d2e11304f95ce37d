"""SecureImageCompressor: the schemes over the image codec."""

import numpy as np
import pytest

from repro.core.integrity import AuthenticationError
from repro.imagecodec import ImageCodec, SecureImageCompressor, synthetic_image


@pytest.fixture(scope="module")
def image():
    return synthetic_image("scene", 96)


def _reference_decode(image, quality=75):
    codec = ImageCodec(quality)
    sections, _ = codec.encode(image)
    return codec.decode(sections)


class TestSchemesOnImages:
    @pytest.mark.parametrize("scheme", ["none", "cmpr_encr", "encr_quant",
                                        "encr_huffman", "encr_huffman_raw"])
    def test_roundtrip_matches_plain_codec(self, scheme, image, key):
        sic = SecureImageCompressor(scheme, 75, key=key)
        out = sic.decompress(sic.compress(image).container)
        assert np.array_equal(out, _reference_decode(image))

    def test_encrypted_bytes_ordering(self, image, key):
        sizes = {}
        for scheme in ("encr_huffman", "encr_quant", "cmpr_encr"):
            sic = SecureImageCompressor(scheme, 75, key=key)
            sizes[scheme] = sic.compress(image).encrypted_bytes
        assert 0 < sizes["encr_huffman"] < sizes["encr_quant"]
        assert sizes["encr_quant"] <= sizes["cmpr_encr"]

    def test_encr_huffman_encrypts_only_tree(self, image, key):
        sic = SecureImageCompressor("encr_huffman", 75, key=key)
        result = sic.compress(image)
        assert result.encrypted_bytes == result.stats.section_bytes["tree"]

    def test_wrong_key_fails(self, image, key):
        writer = SecureImageCompressor("encr_huffman", 75, key=key)
        blob = writer.compress(image).container
        reader = SecureImageCompressor("encr_huffman", 75, key=bytes(16))
        with pytest.raises(ValueError):
            out = reader.decompress(blob)
            if np.array_equal(out, _reference_decode(image)):
                raise AssertionError("wrong key decoded the image")

    def test_scheme_mismatch_detected(self, image, key):
        writer = SecureImageCompressor("encr_huffman", 75, key=key)
        reader = SecureImageCompressor("cmpr_encr", 75, key=key)
        with pytest.raises(ValueError, match="scheme"):
            reader.decompress(writer.compress(image).container)

    def test_authenticated_image(self, image, key):
        sic = SecureImageCompressor("encr_huffman", 75, key=key,
                                    authenticate=True)
        blob = sic.compress(image).container
        assert np.array_equal(sic.decompress(blob), _reference_decode(image))
        tampered = bytearray(blob)
        tampered[len(blob) // 2] ^= 1
        with pytest.raises((AuthenticationError, ValueError)):
            sic.decompress(bytes(tampered))

    def test_key_required(self):
        with pytest.raises(ValueError, match="key"):
            SecureImageCompressor("encr_huffman", 75)

    def test_ctr_mode(self, image, key):
        sic = SecureImageCompressor("cmpr_encr", 75, key=key,
                                    cipher_mode="ctr")
        out = sic.decompress(sic.compress(image).container)
        assert np.array_equal(out, _reference_decode(image))

    def test_seeded_ctr_refused(self, key):
        with pytest.raises(ValueError, match="nonce"):
            SecureImageCompressor("encr_huffman", 75, key=key,
                                  cipher_mode="ctr",
                                  random_state=np.random.default_rng(3))


class TestEncrQuantImpactOnImages:
    def test_cr_collapse_transfers_to_images(self, key):
        """The paper's Encr-Quant caveat is codec-agnostic: a
        compressible image loses CR when its token stream is encrypted
        before zlib."""
        img = synthetic_image("gradient", 128)
        sizes = {}
        for scheme in ("none", "encr_quant", "encr_huffman"):
            sic = SecureImageCompressor(
                scheme, 75, key=key if scheme != "none" else None
            )
            sizes[scheme] = sic.compress(img).compressed_bytes
        assert sizes["encr_quant"] > 1.2 * sizes["none"]
        # Encr-Huffman pays only the fixed CBC-padding/zlib-wrapper cost
        # (a gradient image compresses to ~166 bytes total here).
        assert sizes["encr_huffman"] <= sizes["none"] + 64
