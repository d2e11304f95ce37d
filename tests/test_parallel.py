"""Chunked multi-process compression."""

import numpy as np
import pytest

from repro.parallel import ChunkedSecureCompressor


def _max_err(a, b):
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))


@pytest.fixture(scope="module")
def field():
    return np.random.default_rng(0).random((16, 20, 20)).astype(np.float32)


class TestChunked:
    @pytest.mark.parametrize("scheme", ["none", "encr_huffman", "encr_quant",
                                        "cmpr_encr"])
    def test_roundtrip_inprocess(self, scheme, field, key):
        csc = ChunkedSecureCompressor(
            scheme=scheme, error_bound=1e-3, key=key,
            n_chunks=4, n_workers=1, base_seed=7,
        )
        out = csc.decompress(csc.compress(field))
        assert out.shape == field.shape
        assert _max_err(out, field) <= 1e-3

    def test_roundtrip_multiprocess(self, field, key):
        csc = ChunkedSecureCompressor(
            scheme="encr_huffman", error_bound=1e-3, key=key,
            n_chunks=4, n_workers=2, base_seed=7,
        )
        out = csc.decompress(csc.compress(field))
        assert _max_err(out, field) <= 1e-3

    def test_uneven_chunks(self, field, key):
        csc = ChunkedSecureCompressor(
            scheme="none", error_bound=1e-3,
            n_chunks=5, n_workers=1,  # 16 rows into 5 slabs: 4,3,3,3,3
        )
        out = csc.decompress(csc.compress(field))
        assert _max_err(out, field) <= 1e-3

    def test_chunk_ivs_differ(self, field, key):
        """CBC IV reuse across slabs would be a real vulnerability."""
        from repro.core.container import parse_container
        import struct

        csc = ChunkedSecureCompressor(
            scheme="encr_huffman", error_bound=1e-3, key=key,
            n_chunks=4, n_workers=1,
        )
        blob = csc.compress(field)
        _, n = struct.unpack_from("<4sI", blob)
        lengths = struct.unpack_from(f"<{n}Q", blob, 8)
        ivs = []
        offset = 8 + 8 * n
        for length in lengths:
            ivs.append(parse_container(blob[offset : offset + length]).iv)
            offset += length
        assert len(set(ivs)) == n

    def test_single_chunk_blob(self, field, key):
        # n_chunks=1 is a degenerate but valid SECM framing: one length
        # entry, one container, still round-trips.
        csc = ChunkedSecureCompressor(
            scheme="encr_huffman", error_bound=1e-3, key=key,
            n_chunks=1, n_workers=1,
        )
        blob = csc.compress(field)
        import struct
        _, n = struct.unpack_from("<4sI", blob)
        assert n == 1
        assert _max_err(csc.decompress(blob), field) <= 1e-3

    def test_ctr_roundtrip_and_slab_nonce_uniqueness(self, field, key):
        from repro.core.container import parse_container
        import struct

        csc = ChunkedSecureCompressor(
            scheme="encr_huffman", error_bound=1e-3, key=key,
            cipher_mode="ctr", n_chunks=4, n_workers=1,
        )
        blob = csc.compress(field)
        assert _max_err(csc.decompress(blob), field) <= 1e-3
        _, n = struct.unpack_from("<4sI", blob)
        lengths = struct.unpack_from(f"<{n}Q", blob, 8)
        nonces = []
        offset = 8 + 8 * n
        for length in lengths:
            nonces.append(parse_container(blob[offset : offset + length]).iv)
            offset += length
        assert len(set(nonces)) == n  # nonce reuse would leak slab XORs

    def test_seeded_ctr_refused_by_default(self, key):
        with pytest.raises(ValueError, match="nonce"):
            ChunkedSecureCompressor(
                scheme="encr_huffman", error_bound=1e-3, key=key,
                cipher_mode="ctr", base_seed=7,
            )

    def test_too_many_chunks_rejected(self, key):
        csc = ChunkedSecureCompressor(scheme="none", n_chunks=50)
        with pytest.raises(ValueError, match="split"):
            csc.compress(np.zeros((4, 8, 8), dtype=np.float32))

    def test_bad_params(self, key):
        with pytest.raises(ValueError):
            ChunkedSecureCompressor(n_chunks=0)
        with pytest.raises(ValueError):
            ChunkedSecureCompressor(n_workers=0)

    def test_corrupt_framing_rejected(self, field, key):
        csc = ChunkedSecureCompressor(scheme="none", n_chunks=2, n_workers=1)
        blob = csc.compress(field)
        with pytest.raises(ValueError, match="magic"):
            csc.decompress(b"XXXX" + blob[4:])
        with pytest.raises(ValueError):
            csc.decompress(blob[:20])
        with pytest.raises(ValueError, match="trailing"):
            csc.decompress(blob + b"x")


class TestAuthenticatedChunks:
    def test_per_slab_tags(self, field, key):
        from repro.core import integrity
        import struct

        csc = ChunkedSecureCompressor(
            scheme="encr_huffman", error_bound=1e-3, key=key,
            authenticate=True, n_chunks=3, n_workers=1, base_seed=1,
        )
        blob = csc.compress(field)
        out = csc.decompress(blob)
        assert _max_err(out, field) <= 1e-3
        # Every slab carries its own SECA tag.
        _, n = struct.unpack_from("<4sI", blob)
        lengths = struct.unpack_from(f"<{n}Q", blob, 8)
        offset = 8 + 8 * n
        for length in lengths:
            assert blob[offset : offset + 4] == integrity.MAGIC
            offset += length

    def test_tampered_slab_detected(self, field, key):
        csc = ChunkedSecureCompressor(
            scheme="encr_huffman", error_bound=1e-3, key=key,
            authenticate=True, n_chunks=3, n_workers=1, base_seed=1,
        )
        blob = bytearray(csc.compress(field))
        blob[len(blob) // 2] ^= 1
        with pytest.raises(ValueError):
            csc.decompress(bytes(blob))
