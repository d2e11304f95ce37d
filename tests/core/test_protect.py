"""The seal path: :class:`repro.core.protect.Sealer` and the front-end
contract every compressor inherits from it."""

import numpy as np
import pytest

from repro.core import integrity, schemes
from repro.core.container import pack_container
from repro.core.pipeline import SecureCompressor
from repro.core.protect import Sealer
from repro.core.rekey import rotate_key
from repro.crypto.rng import refuse_seeded_ctr
from repro.imagecodec import SecureImageCompressor
from repro.multilevel import SecureMultilevelCompressor
from repro.sz import SZCompressor

NEW_KEY = b"fresh-key-2026!!"


@pytest.fixture(scope="module")
def sections(smooth_field):
    return SZCompressor(1e-3).compress(smooth_field).sections


class TestProtectHelpers:
    @pytest.mark.parametrize("scheme", ["none", "cmpr_encr", "encr_quant",
                                        "encr_huffman"])
    def test_roundtrip(self, scheme, sections, key):
        sealer = Sealer(scheme, key=key)
        assert sealer.open(sealer.seal(sections)) == dict(sections)

    def test_expected_scheme_enforced(self, sections, key):
        blob = Sealer("encr_huffman", key=key).seal(sections)
        with pytest.raises(ValueError, match="written with scheme"):
            Sealer("cmpr_encr", key=key).open(blob)

    def test_cipher_mode_read_from_header(self, sections, key):
        blob = Sealer("cmpr_encr", key=key, cipher_mode="ctr").seal(sections)
        assert Sealer("cmpr_encr", key=key).open(blob) == dict(sections)

    def test_missing_key_rejected(self, sections):
        with pytest.raises(ValueError, match="requires a 16-byte key"):
            Sealer("encr_huffman")
        with pytest.raises(ValueError, match="authentication requires"):
            Sealer("none", authenticate=True)
        sealer = Sealer("none")
        assert sealer.open(sealer.seal(sections)) == dict(sections)

    def test_key_needed_to_read_encrypted(self, sections, key):
        blob = Sealer("encr_huffman", key=key).seal(sections)
        with pytest.raises(ValueError, match="written with scheme"):
            Sealer("none").open(blob)
        tagged = Sealer("none", key=key, authenticate=True).seal(sections)
        with pytest.raises(ValueError, match="requires a key"):
            Sealer("none").open(tagged)

    def test_authentication(self, sections, key):
        sealer = Sealer("none", key=key, authenticate=True)
        blob = sealer.seal(sections)
        assert blob[:4] == b"SECA"
        assert sealer.open(blob) == dict(sections)
        with pytest.raises(ValueError):
            sealer.open(blob[:-1] + b"\x00")

    def test_deterministic_with_seed(self, sections, key):
        a, b = (
            Sealer("encr_huffman", key=key,
                   random_state=np.random.default_rng(9)).seal(sections)
            for _ in range(2)
        )
        assert a == b

    def test_seeded_ctr_refused(self, key):
        # A seeded generator replays its nonces: two calls seeded alike
        # would encrypt different sections under one (key, nonce).
        with pytest.raises(ValueError, match="nonce"):
            Sealer("encr_huffman", key=key, cipher_mode="ctr",
                   random_state=np.random.default_rng(9))

    def test_ctr_mode(self, sections, key):
        sealer = Sealer("cmpr_encr", key=key, cipher_mode="ctr")
        assert sealer.open(sealer.seal(sections)) == dict(sections)

    def test_unknown_cipher_mode_rejected(self, key):
        with pytest.raises(ValueError, match="cipher mode"):
            Sealer("encr_huffman", key=key, cipher_mode="gcm")


class _EncryptsTwice(schemes.Scheme):
    """Breaks the nonce rule: two encryptions under the container's IV,
    then the ``none`` layout (so a container of it opens)."""

    @property
    def requires_key(self) -> bool:
        return True

    def protect(self, frame_sections, cipher, iv, mode, tracer=None):
        for name in ("tree", "codes"):
            cipher.encrypt(frame_sections[name], mode=mode, iv=iv)
        return super().protect(frame_sections, cipher, iv, mode, tracer)


@pytest.fixture
def encrypts_twice(monkeypatch):
    scheme = _EncryptsTwice("encrypts_twice", 250)
    monkeypatch.setitem(schemes.SCHEMES, scheme.name, scheme)
    monkeypatch.setitem(schemes._BY_ID, scheme.scheme_id, scheme)
    return scheme


def _sz(scheme, **kwargs):
    sc = SecureCompressor(scheme, 1e-3, **kwargs)
    return (lambda field: sc.compress(field).container), sc.decompress


def _image(scheme, **kwargs):
    sic = SecureImageCompressor(scheme, 75, **kwargs)
    return (lambda field: sic.compress(field[0] * 100).container,
            sic.decompress)


def _multilevel(scheme, **kwargs):
    smc = SecureMultilevelCompressor(scheme, 1e-3, **kwargs)
    return smc.compress, smc.decompress


#: Each compressor front end as ``build(scheme, **kwargs) -> (seal, open)``.
COMPRESSORS = {"sz": _sz, "image": _image, "multilevel": _multilevel}
FRONT_ENDS = [*COMPRESSORS, "rotate_key"]


class TestFrontEndContract:
    """What every front end gets from the one seal path."""

    @pytest.mark.parametrize("front_end", FRONT_ENDS)
    def test_second_ctr_encryption_under_nonce_raises(
        self, front_end, encrypts_twice, sections, smooth_field, key
    ):
        if front_end == "rotate_key":
            nonce = bytes(8)
            plain = schemes.get_scheme("none").protect(
                sections, None, nonce, "ctr"
            )
            blob = pack_container(encrypts_twice.scheme_id, "ctr", nonce,
                                  plain)

            def run():
                rotate_key(blob, key, NEW_KEY)
        else:
            seal, _ = COMPRESSORS[front_end](
                encrypts_twice.name, key=key, cipher_mode="ctr"
            )

            def run():
                seal(smooth_field)
        with pytest.raises(RuntimeError, match="already consumed"):
            run()

    @pytest.mark.parametrize("front_end", sorted(COMPRESSORS))
    def test_stripped_tag_refused(self, front_end, smooth_field, key):
        seal, open_ = COMPRESSORS[front_end](
            "encr_huffman", key=key, authenticate=True
        )
        blob = seal(smooth_field)
        assert blob[: len(integrity.MAGIC)] == integrity.MAGIC
        stripped = blob[len(integrity.MAGIC) + integrity.TAG_BYTES:]
        with pytest.raises(integrity.AuthenticationError,
                           match="authenticated"):
            open_(stripped)

    @pytest.mark.parametrize("front_end", FRONT_ENDS)
    def test_seeded_ctr_refused_with_one_message(
        self, front_end, smooth_field, key
    ):
        with pytest.raises(ValueError) as policy:
            refuse_seeded_ctr("ctr", 1)
        rng = np.random.default_rng(1)
        if front_end == "rotate_key":
            blob = SecureCompressor(
                "encr_huffman", 1e-3, key=key, cipher_mode="ctr"
            ).compress(smooth_field).container

            def build():
                rotate_key(blob, key, NEW_KEY, random_state=rng)
        else:
            def build():
                COMPRESSORS[front_end]("encr_huffman", key=key,
                                       cipher_mode="ctr", random_state=rng)
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == str(policy.value)
