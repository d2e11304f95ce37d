"""SECM files through ``repro.parallel``: one SECZ container per slab."""

import struct

import numpy as np
import pytest

from repro.core import integrity
from repro.core.container import parse_container
from repro.parallel import compress_file, decompress_file


def _max_err(a, b):
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))


@pytest.fixture(scope="module")
def field():
    return np.random.default_rng(0).random((16, 20, 20)).astype(np.float32)


@pytest.fixture()
def raw(field, tmp_path):
    path = tmp_path / "field.bin"
    field.tofile(path)
    return str(path)


def _compress(raw, field, tmp_path, **kwargs):
    """Compress ``raw`` into a SECM file; returns its path."""
    secm = str(tmp_path / "field.secm")
    compress_file(raw, secm, field.shape, **kwargs)
    return secm


def _restore(secm, tmp_path, **kwargs):
    out = tmp_path / "restored.bin"
    shape = decompress_file(secm, str(out), **kwargs)
    return np.fromfile(out, dtype=np.float32).reshape(shape)


def _slab_containers(secm):
    """The SECM file's containers, split by its header and length table."""
    with open(secm, "rb") as fh:
        blob = fh.read()
    _, n = struct.unpack_from("<4sI", blob)
    lengths = struct.unpack_from(f"<{n}Q", blob, 8)
    offset = 8 + 8 * n
    containers = []
    for length in lengths:
        containers.append(blob[offset : offset + length])
        offset += length
    return containers


class TestChunked:
    @pytest.mark.parametrize("scheme", ["none", "encr_huffman", "encr_quant",
                                        "cmpr_encr"])
    def test_roundtrip_inprocess(self, scheme, field, raw, tmp_path, key):
        kwargs = dict(scheme=scheme, error_bound=1e-3, key=key)
        secm = _compress(raw, field, tmp_path, slab_rows=4,
                         random_state=np.random.default_rng(7), **kwargs)
        out = _restore(secm, tmp_path, **kwargs)
        assert out.shape == field.shape
        assert _max_err(out, field) <= 1e-3

    def test_uneven_chunks(self, field, raw, tmp_path):
        # 16 rows at 5 per slab: 5, 5, 5, 1.
        secm = _compress(raw, field, tmp_path, slab_rows=5, scheme="none")
        assert len(_slab_containers(secm)) == 4
        assert _max_err(_restore(secm, tmp_path, scheme="none"), field) <= 1e-3

    def test_chunk_ivs_differ(self, field, raw, tmp_path, key):
        """CBC IV reuse across slabs would be a real vulnerability."""
        secm = _compress(raw, field, tmp_path, slab_rows=4,
                         scheme="encr_huffman", error_bound=1e-3, key=key)
        ivs = [parse_container(c).iv for c in _slab_containers(secm)]
        assert len(ivs) == 4
        assert len(set(ivs)) == 4

    def test_single_chunk_blob(self, field, raw, tmp_path, key):
        # One slab is a degenerate but valid SECM framing: one length
        # entry, one container, still round-trips.
        kwargs = dict(scheme="encr_huffman", error_bound=1e-3, key=key)
        secm = _compress(raw, field, tmp_path, slab_rows=field.shape[0],
                         **kwargs)
        assert len(_slab_containers(secm)) == 1
        assert _max_err(_restore(secm, tmp_path, **kwargs), field) <= 1e-3

    def test_ctr_roundtrip_and_slab_nonce_uniqueness(self, field, raw,
                                                     tmp_path, key):
        kwargs = dict(scheme="encr_huffman", error_bound=1e-3, key=key,
                      cipher_mode="ctr")
        secm = _compress(raw, field, tmp_path, slab_rows=4, **kwargs)
        assert _max_err(_restore(secm, tmp_path, **kwargs), field) <= 1e-3
        nonces = [parse_container(c).iv for c in _slab_containers(secm)]
        assert len(nonces) == 4
        assert len(set(nonces)) == 4  # nonce reuse would leak slab XORs

    def test_seeded_ctr_refused_by_default(self, field, raw, tmp_path, key):
        with pytest.raises(ValueError, match="nonce"):
            _compress(raw, field, tmp_path, scheme="encr_huffman",
                      error_bound=1e-3, key=key, cipher_mode="ctr",
                      random_state=np.random.default_rng(7))

    def test_corrupt_framing_rejected(self, field, raw, tmp_path):
        """A header or length table cut short, or bytes that no table
        entry covers, fail as framing errors (``test_filestream`` covers
        bad magic and a cut payload)."""
        secm = _compress(raw, field, tmp_path, slab_rows=8, scheme="none")
        with open(secm, "rb") as fh:
            blob = fh.read()
        bad = tmp_path / "bad.secm"
        for damaged, match in [
            (blob[:6], "truncated SECM header"),
            (blob[:20], "truncated SECM length table"),
            (blob[:4] + struct.pack("<I", 0) + blob[8:], "trailing"),
        ]:
            bad.write_bytes(damaged)
            with pytest.raises(ValueError, match=match):
                decompress_file(str(bad), str(tmp_path / "o"), scheme="none")


class TestAuthenticatedChunks:
    def test_per_slab_tags(self, field, raw, tmp_path, key):
        kwargs = dict(scheme="encr_huffman", error_bound=1e-3, key=key,
                      authenticate=True)
        secm = _compress(raw, field, tmp_path, slab_rows=6,
                         random_state=np.random.default_rng(1), **kwargs)
        assert _max_err(_restore(secm, tmp_path, **kwargs), field) <= 1e-3
        # Every slab carries its own SECA tag.
        containers = _slab_containers(secm)
        assert len(containers) == 3
        assert all(c[:4] == integrity.MAGIC for c in containers)

    def test_tampered_slab_detected(self, field, raw, tmp_path, key):
        kwargs = dict(scheme="encr_huffman", error_bound=1e-3, key=key,
                      authenticate=True)
        secm = _compress(raw, field, tmp_path, slab_rows=6,
                         random_state=np.random.default_rng(1), **kwargs)
        with open(secm, "rb") as fh:
            blob = bytearray(fh.read())
        blob[len(blob) // 2] ^= 1
        with open(secm, "wb") as fh:
            fh.write(blob)
        with pytest.raises(integrity.AuthenticationError):
            _restore(secm, tmp_path, **kwargs)
