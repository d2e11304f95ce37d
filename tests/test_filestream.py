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
