"""Streaming file-to-file compression."""

import numpy as np
import pytest

from repro.datasets import generate, save_field
from repro.parallel import compress_file, decompress_file

KEY = bytes(range(16))


@pytest.fixture()
def field_file(tmp_path):
    data = generate("q2", size="tiny")
    path = tmp_path / "q2.bin"
    save_field(path, data)
    return str(path), data


class TestFileStream:
    def test_roundtrip(self, field_file, tmp_path):
        path, data = field_file
        secm = str(tmp_path / "q2.secm")
        raw = str(tmp_path / "restored.bin")
        n = compress_file(
            path, secm, data.shape, slab_rows=3,
            scheme="encr_huffman", error_bound=1e-4, key=KEY,
        )
        assert n == -(-data.shape[0] // 3)
        shape = decompress_file(
            secm, raw, scheme="encr_huffman", error_bound=1e-4, key=KEY
        )
        assert shape == data.shape
        out = np.fromfile(raw, dtype=np.float32).reshape(shape)
        assert np.max(np.abs(out.astype(np.float64)
                             - data.astype(np.float64))) <= 1e-4

    def test_compressed_smaller_than_raw(self, field_file, tmp_path):
        import os
        path, data = field_file
        secm = str(tmp_path / "q2.secm")
        compress_file(path, secm, data.shape, scheme="none",
                      error_bound=1e-3)
        assert os.path.getsize(secm) < data.nbytes / 3

    def test_single_slab(self, field_file, tmp_path):
        path, data = field_file
        secm = str(tmp_path / "one.secm")
        n = compress_file(path, secm, data.shape,
                          slab_rows=data.shape[0],
                          scheme="none", error_bound=1e-3)
        assert n == 1
        raw = str(tmp_path / "one.bin")
        assert decompress_file(secm, raw, scheme="none") == data.shape

    def test_size_mismatch_rejected(self, field_file, tmp_path):
        path, data = field_file
        with pytest.raises(ValueError, match="size"):
            compress_file(path, str(tmp_path / "x"),
                          (data.shape[0] + 1, *data.shape[1:]),
                          scheme="none")

    def test_bad_slab_rows(self, field_file, tmp_path):
        path, data = field_file
        with pytest.raises(ValueError, match="slab_rows"):
            compress_file(path, str(tmp_path / "x"), data.shape,
                          slab_rows=0, scheme="none")

    def test_corrupt_secm_rejected(self, field_file, tmp_path):
        path, data = field_file
        secm = tmp_path / "q2.secm"
        compress_file(path, str(secm), data.shape, scheme="none",
                      error_bound=1e-3)
        blob = secm.read_bytes()
        bad = tmp_path / "bad.secm"
        bad.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(ValueError, match="magic"):
            decompress_file(str(bad), str(tmp_path / "o"), scheme="none")
        short = tmp_path / "short.secm"
        short.write_bytes(blob[:-10])
        with pytest.raises(ValueError, match="truncated"):
            decompress_file(str(short), str(tmp_path / "o"), scheme="none")
        trailing = tmp_path / "trail.secm"
        trailing.write_bytes(blob + b"z")
        with pytest.raises(ValueError, match="trailing"):
            decompress_file(str(trailing), str(tmp_path / "o"), scheme="none")

    def test_hostile_lengths_fail_as_truncation(self, tmp_path):
        """A declared count or length past the end of the stream is a
        truncation."""
        import struct

        huge_len = struct.pack("<4sIQ", b"SECM", 1, 2**64 - 1)
        huge_count = struct.pack("<4sI", b"SECM", 2**32 - 1)
        for blob in (huge_len, huge_count):
            path = tmp_path / "hostile.secm"
            path.write_bytes(blob)
            with pytest.raises(ValueError, match="truncated"):
                decompress_file(str(path), str(tmp_path / "o"),
                                scheme="none")


class TestNoPartialOutput:
    """A failed decompress leaves no output file, and a file already at
    the output path keeps its bytes."""

    @staticmethod
    def _truncated_secm(tmp_path):
        field = np.arange(1024, dtype=np.float32).reshape(4, 16, 16)
        raw = tmp_path / "field.bin"
        field.tofile(raw)
        secm = tmp_path / "field.secm"
        assert compress_file(str(raw), str(secm), field.shape, slab_rows=1,
                             scheme="none", error_bound=1e-3) == 4
        cut = tmp_path / "cut.secm"
        cut.write_bytes(secm.read_bytes()[:-10])
        return str(cut)

    def test_failed_decompress_leaves_no_output(self, tmp_path):
        cut = self._truncated_secm(tmp_path)
        out = tmp_path / "out.bin"
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(ValueError, match="truncated"):
            decompress_file(cut, str(out), scheme="none")
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_failed_decompress_keeps_existing_output(self, tmp_path):
        cut = self._truncated_secm(tmp_path)
        out = tmp_path / "out.bin"
        out.write_bytes(b"previous result")
        with pytest.raises(ValueError):
            decompress_file(cut, str(out), scheme="none")
        assert out.read_bytes() == b"previous result"

    def test_failed_compress_keeps_existing_output(self, tmp_path,
                                                  monkeypatch):
        from repro.core.pipeline import SecureCompressor

        real = SecureCompressor.compress
        slabs = []

        def fail_third_slab(self, data, **kwargs):
            slabs.append(data.shape)
            if len(slabs) == 3:
                raise OSError("disk full")
            return real(self, data, **kwargs)

        monkeypatch.setattr(SecureCompressor, "compress", fail_third_slab)
        raw = tmp_path / "field.bin"
        np.zeros((4, 16, 16), dtype=np.float32).tofile(raw)
        out = tmp_path / "out.secm"
        out.write_bytes(b"previous result")
        with pytest.raises(OSError, match="disk full"):
            compress_file(str(raw), str(out), (4, 16, 16), slab_rows=1,
                          scheme="none", error_bound=1e-3)
        assert len(slabs) == 3
        assert out.read_bytes() == b"previous result"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "field.bin", "out.secm"
        ]
