"""The ``secz`` command-line interface."""

import numpy as np
import pytest

from repro import cli
from repro.datasets import generate, save_field


@pytest.fixture()
def q2_bin(tmp_path):
    path = tmp_path / "q2.bin"
    save_field(path, generate("q2", size="tiny"))
    return str(path)


class TestCompressDecompress:
    def test_roundtrip_bin(self, q2_bin, tmp_path, capsys):
        out = str(tmp_path / "q2.secz")
        restored = str(tmp_path / "q2.npy")
        assert cli.main([
            "compress", q2_bin, out, "--shape", "11,56,56",
            "--eb", "1e-4", "--passphrase", "pw",
        ]) == 0
        assert cli.main([
            "decompress", out, restored, "--passphrase", "pw",
        ]) == 0
        data = generate("q2", size="tiny")
        back = np.load(restored)
        assert np.max(np.abs(back.astype(np.float64) - data)) <= 1e-4
        assert "CR" in capsys.readouterr().out

    def test_roundtrip_npy(self, tmp_path):
        data = np.linspace(0, 1, 512, dtype=np.float32).reshape(8, 8, 8)
        src = tmp_path / "in.npy"
        np.save(src, data)
        out = str(tmp_path / "x.secz")
        back = str(tmp_path / "back.npy")
        key = "00112233445566778899aabbccddeeff"
        assert cli.main(["compress", str(src), out, "--key-hex", key]) == 0
        assert cli.main(["decompress", out, back, "--key-hex", key]) == 0
        assert np.max(np.abs(np.load(back) - data)) <= 1e-3

    def test_scheme_none_needs_no_key(self, q2_bin, tmp_path):
        out = str(tmp_path / "q2.secz")
        assert cli.main([
            "compress", q2_bin, out, "--shape", "11,56,56",
            "--scheme", "none",
        ]) == 0
        assert cli.main(["decompress", out, str(tmp_path / "o.npy")]) == 0

    def test_missing_shape_for_bin(self, q2_bin, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["compress", q2_bin, str(tmp_path / "x"),
                      "--passphrase", "pw"])

    def test_bad_key_hex(self, q2_bin, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["compress", q2_bin, str(tmp_path / "x"),
                      "--shape", "11,56,56", "--key-hex", "abcd"])


class TestInspect:
    def test_inspect_output(self, q2_bin, tmp_path, capsys):
        out = str(tmp_path / "q2.secz")
        cli.main(["compress", q2_bin, out, "--shape", "11,56,56",
                  "--passphrase", "pw"])
        capsys.readouterr()
        assert cli.main(["inspect", out]) == 0
        text = capsys.readouterr().out
        assert "scheme:      encr_huffman" in text
        assert "cipher mode: cbc" in text


class TestNistCommand:
    def test_random_file_passes(self, tmp_path, capsys):
        path = tmp_path / "rand.bin"
        path.write_bytes(
            np.random.default_rng(42).integers(
                0, 256, 150_000, dtype=np.uint8
            ).tobytes()
        )
        rc = cli.main(["nist", str(path), "--streams", "2"])
        assert rc == 0
        assert "frequency" in capsys.readouterr().out

    def test_structured_file_fails(self, tmp_path, capsys):
        path = tmp_path / "zeros.bin"
        path.write_bytes(bytes(100_000))
        assert cli.main(["nist", str(path), "--streams", "2"]) == 1


class TestDatasets:
    def test_listing(self, capsys):
        assert cli.main(["datasets", "--size", "tiny"]) == 0
        out = capsys.readouterr().out
        for name in ("cloudf48", "nyx", "qi"):
            assert name in out

    def test_write(self, tmp_path, capsys):
        assert cli.main(["datasets", "--size", "tiny",
                         "--write", str(tmp_path)]) == 0
        assert (tmp_path / "nyx.bin").exists()


class TestParser:
    def test_shape_parsing(self):
        assert cli._parse_shape("2,3,4") == (2, 3, 4)
        with pytest.raises(Exception):
            cli._parse_shape("2,x")
        with pytest.raises(Exception):
            cli._parse_shape("0,1")

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])


class TestAdvise:
    def test_advise_output(self, q2_bin, capsys):
        assert cli.main(["advise", q2_bin, "--shape", "11,56,56",
                         "--eb", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert "recommended scheme:" in out
        assert "predictable fraction" in out

    def test_advise_randomness_forces_cmpr_encr(self, q2_bin, capsys):
        assert cli.main(["advise", q2_bin, "--shape", "11,56,56",
                         "--randomness"]) == 0
        assert "cmpr_encr" in capsys.readouterr().out


class TestImageCommands:
    def test_image_roundtrip(self, tmp_path, capsys):
        from repro.imagecodec import ImageCodec, synthetic_image

        img = synthetic_image("scene", 64)
        src = tmp_path / "img.npy"
        np.save(src, img)
        out = str(tmp_path / "img.secz")
        back = str(tmp_path / "back.npy")
        assert cli.main(["img-compress", str(src), out,
                         "--quality", "80", "--passphrase", "pw"]) == 0
        assert cli.main(["img-decompress", out, back,
                         "--passphrase", "pw"]) == 0
        restored = np.load(back)
        codec = ImageCodec(80)
        sections, _ = codec.encode(img)
        assert np.array_equal(restored, codec.decode(sections))


class TestInspectAuthenticated:
    def test_inspect_shows_tag(self, tmp_path, capsys):
        from repro.core.pipeline import SecureCompressor

        data = np.linspace(0, 1, 512, dtype=np.float32)
        sc = SecureCompressor("encr_huffman", 1e-3, key=bytes(16),
                              authenticate=True)
        path = tmp_path / "a.secz"
        path.write_bytes(sc.compress(data).container)
        assert cli.main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "authenticated: yes" in out


class TestAuthenticatedContainers:
    """SECA-tagged containers through the CLI: the header read skips the
    tag to pick the scheme, and the decompress verifies it."""

    KEY_HEX = "000102030405060708090a0b0c0d0e0f"

    def _tagged(self, tmp_path, data):
        from repro.core.pipeline import SecureCompressor

        sc = SecureCompressor("encr_huffman", 1e-3,
                              key=bytes.fromhex(self.KEY_HEX),
                              authenticate=True)
        path = tmp_path / "tagged.secz"
        path.write_bytes(sc.compress(data).container)
        return path

    def test_roundtrip_meets_error_bound(self, tmp_path):
        data = generate("q2", size="tiny")
        path = self._tagged(tmp_path, data)
        back = str(tmp_path / "back.npy")
        assert cli.main(["decompress", str(path), back,
                         "--key-hex", self.KEY_HEX]) == 0
        assert np.max(np.abs(np.load(back).astype(np.float64) - data)) <= 1e-3

    def test_flipped_tag_byte_exits_nonzero(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        path = self._tagged(tmp_path, np.linspace(0, 1, 512,
                                                  dtype=np.float32))
        blob = bytearray(path.read_bytes())
        blob[4] ^= 0x01  # first byte of the HMAC tag
        path.write_bytes(bytes(blob))
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "decompress", str(path),
             str(tmp_path / "out.npy"), "--key-hex", self.KEY_HEX],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode != 0
        assert "failed authentication" in proc.stderr
        assert not (tmp_path / "out.npy").exists()

    def test_image_roundtrip(self, tmp_path):
        from repro.imagecodec import ImageCodec, SecureImageCompressor
        from repro.imagecodec import synthetic_image

        img = synthetic_image("scene", 64)
        sic = SecureImageCompressor("encr_huffman", 80,
                                    key=bytes.fromhex(self.KEY_HEX),
                                    authenticate=True)
        path = tmp_path / "img.secz"
        path.write_bytes(sic.compress(img).container)
        back = str(tmp_path / "back.npy")
        assert cli.main(["img-decompress", str(path), back,
                         "--key-hex", self.KEY_HEX]) == 0
        codec = ImageCodec(80)
        sections, _ = codec.encode(img)
        assert np.array_equal(np.load(back), codec.decode(sections))


class TestTrace:
    def test_synthetic_roundtrip_writes_valid_schema(self, tmp_path, capsys):
        """Acceptance: `secz trace` output validates against the
        documented repro-trace/1 schema."""
        import json

        from repro.core import trace

        out = tmp_path / "t.trace.json"
        chrome = tmp_path / "t.chrome.json"
        assert cli.main([
            "trace", "--synthetic", "t", "--size", "tiny",
            "--scheme", "encr_huffman", "--eb", "1e-4",
            "--json", str(out), "--chrome", str(chrome),
        ]) == 0
        text = capsys.readouterr().out
        assert "compress" in text and "counters:" in text

        doc = trace.validate(json.loads(out.read_text()))
        names = [root["name"] for root in doc["roots"]]
        assert names == ["compress", "decompress"]
        assert doc["counters"]["aes.blocks_encrypted"] > 0

        events = json.loads(chrome.read_text())["traceEvents"]
        assert all(ev["ph"] == "X" for ev in events)

    def test_file_input_no_decompress(self, tmp_path):
        import json

        src = tmp_path / "f.npy"
        np.save(src, np.linspace(0, 1, 4096, dtype=np.float32))
        out = tmp_path / "f.trace.json"
        assert cli.main([
            "trace", str(src), "--scheme", "none", "--eb", "1e-3",
            "--no-decompress", "--json", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert [r["name"] for r in doc["roots"]] == ["compress"]

    def test_rejects_both_or_neither_input(self, tmp_path, q2_bin):
        with pytest.raises(SystemExit):
            cli.main(["trace"])
        with pytest.raises(SystemExit):
            cli.main(["trace", q2_bin, "--synthetic", "t"])
