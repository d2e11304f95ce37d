"""Golden-digest tests pinning the wire formats.

A SECZ container written today must stay readable forever, so the byte
formats (frame sections, container framing, each scheme's transform)
are locked by SHA-256 digests of a fixed, fully-seeded compression.
If one of these fails, a format-affecting change happened: either fix
the regression, or — for a deliberate format evolution — bump the
relevant version constant, keep a decode path for the old version, and
re-record the digest.

Old-version readability is pinned the hard way: ``tests/data/
v1_containers/`` holds containers written by the v1 code (container v1
/ frame v2, single-stream Huffman) together with the SHA-256 of the
fields they decoded to, and every release must keep decoding them
bit-exactly.
"""

import hashlib
import json
import os
import struct

import numpy as np
import pytest

from repro.core.pipeline import SecureCompressor
from repro.datasets import generate
from repro.sz import SZCompressor
from repro.sz.compressor import SECTION_ORDER

KEY = bytes(range(16))

#: Recorded against format versions: container v2, SZ frame v2/v3.
#: The auto encoder writes the legacy v2 single-stream frame for this
#: small fixture (its sections are byte-identical to the pre-lane
#:  format), so the ``section:*`` digests pin that fallback; the
#: ``v3:*`` digests pin the multi-lane frame via explicit lane knobs.
GOLDEN = {
    "none": "bc0feabcf036570b9ea7035c589bff6ffbc73e63607575193f4e7e8c7cb159bc",
    "cmpr_encr": "fbd5f077f2e64de09086f69a218575a5aba394a42b1b6c20e7a1245000b44186",
    "encr_quant": "76daac4a28c44fd553c25ae378093924c01db0d760033b1c996866d980ed2768",
    "encr_huffman": "7756ef88aa7abb42d73186f6ba4cdcacc10bd25b5d58570182ca01b39a4b097d",
    "encr_huffman_raw": "d9cad882ff72a1bda03ff597236ca313a7020d609ca850ae647d41257b5e9100",
    "ctr:cmpr_encr": "c5b517971d0999d4af7dcb38dc3faa08f0a842b2e9c27739a4468e4acbe8a52c",
    "ctr:encr_quant": "4ca752fa1ac5b8175ff0d1ccc0c4846355b4be6bc152234bc163c79df1a9637e",
    "ctr:encr_huffman": "08df1304d3e01dabbf4477659db361bf2e0b9cbc96186ea8640bd2ca137734dd",
    "ctr:encr_huffman_raw": "cd2f41fdd6a8655bc15bac077c8f74dacb7d94429875ee33cc21e92167bfb896",
    "section:meta": "d9e5455248ea886e83f3905ff6df41a1ed7d4229560f03a3d88feeb7a6f6765a",
    "section:tree": "bf2b2cd9704e1ad88546bbe244680c8f61ae09811b37718d0db324496c1bb2b5",
    "section:codes": "6fad7bfe1771cda737f157da1f566e0764784de818fc57d01a79af76b822ab66",
    "section:unpred": "e90696b255cccdfbaf8df2c8f1b983c8b1eab7871581ba2fa3587a0785cd1993",
    "section:coeffs": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "section:exact": "956ce4df0f4b576a2dee1a94dbac6a1097e4a06227e77f43d63b250ed90e60a3",
    "section:aux": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "v3:meta": "3a45d6e5c3b5a5cb82cb244daf030c063259a5b7ca76d8a5270197b7f8475aa4",
    "v3:tree": "1be46aa4a75c5c07510b621264d2c7dfedb1b4b63f9337676730c84c6fd33402",
    "v3:codes": "9ff07a6197a887e878962acf82742d47b8fbeb3e9374e42a5afb36b96aa5967a",
    "auto:mean": "8548f430b2836bc2292ac2066f89938659db8d2fb448c0a8fc5f533a357ff7fc",
    "auto:regression": "314e8126577d471bdf4e20bc17416a4b1075ae32460aa8bf16e2dc32eb1ba72c",
    "lz7h": "a1a2509ea3581a49186f7697ad4ecd2ee8f6f5edd700ce571d64065177415234",
    "secb_v2": "decf63e6ac38933918d07f55259f3f39b01a300f078bdcb8ccc2ff284add7ffb",
}

V1_DIR = os.path.join(os.path.dirname(__file__), "data", "v1_containers")

#: SHA-256 of the field each pinned frame decodes to, recorded before
#: the slab-wise reader replaced the whole-array one.  Every q2 frame
#: holds the same grid, so every scheme and cipher mode (and the v3
#: frame) decodes to the same bytes; the ``auto`` frames pin the mean
#: and regression reconstructions.
DECODED = {
    "q2": "c0cb09e2dab89d35a498ec72bafa98c2ce472a9d7e96362fcd1a9bc523e95708",
    "auto:mean": "966cc119d58a1514d7c209f666a248f8eb06be8156ebe83ca4b2be7a18cabdd6",
    "auto:regression": "a8eb9e1f220a7b7c1793b97363ba2939d0190a71d3b8ad278596c35bcca00a5d",
}


@pytest.fixture(scope="module")
def reference_data():
    return np.asarray(generate("q2", size="tiny"))


@pytest.mark.parametrize("scheme", ["none", "cmpr_encr", "encr_quant",
                                    "encr_huffman", "encr_huffman_raw"])
def test_container_digest_stable(scheme, reference_data):
    sc = SecureCompressor(
        scheme, 1e-4, key=KEY, random_state=np.random.default_rng(42)
    )
    blob = sc.compress(reference_data).container
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[scheme], (
        f"{scheme} container bytes changed — wire-format regression, or a "
        "deliberate format change that needs a version bump (see module "
        "docstring)"
    )


@pytest.mark.parametrize("scheme", ["cmpr_encr", "encr_quant",
                                    "encr_huffman", "encr_huffman_raw"])
def test_ctr_container_digest_stable(scheme, reference_data):
    """Pin CTR frames too: the keystream is a pure function of (key,
    nonce, counter), so a seeded nonce fixes every ciphertext byte."""
    sc = SecureCompressor(
        scheme, 1e-4, key=KEY, cipher_mode="ctr", allow_nonce_reuse=True,
        random_state=np.random.default_rng(42),
    )
    blob = sc.compress(reference_data).container
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[f"ctr:{scheme}"], (
        f"{scheme} CTR container bytes changed — see module docstring"
    )


def test_frame_section_digests_stable(reference_data):
    frame = SZCompressor(1e-4).compress(reference_data)
    for name, section in frame.sections.items():
        digest = hashlib.sha256(section).hexdigest()
        assert digest == GOLDEN[f"section:{name}"], (
            f"frame section {name!r} bytes changed — see module docstring"
        )


def test_v3_frame_section_digests_stable(reference_data):
    """Pin the multi-lane (frame v3) bytes, which the auto encoder only
    emits for large coded payloads, by forcing the lane knobs."""
    comp = SZCompressor(1e-4, huffman_lanes=4, anchor_stride=1024)
    frame = comp.compress(reference_data)
    assert SZCompressor.parse_meta(frame.sections["meta"])["version"] == 3
    for name in ("meta", "tree", "codes"):
        digest = hashlib.sha256(frame.sections[name]).hexdigest()
        assert digest == GOLDEN[f"v3:{name}"], (
            f"v3 frame section {name!r} bytes changed — see module docstring"
        )


@pytest.mark.parametrize("dataset,eb,winner", [
    ("nyx", 1e-4, "mean"),
    ("wf48", 1e-6, "regression"),
])
def test_auto_frame_digest_stable_per_winner(dataset, eb, winner):
    """Pin whole ``auto`` frames whose selected predictor is not
    Lorenzo, so the mean and regression paths of the selector (modal
    value, coefficients, verbatim side channel) are byte-locked too."""
    frame = SZCompressor(eb).compress(np.asarray(generate(dataset, size="tiny")))
    assert frame.stats.predictor == winner
    h = hashlib.sha256()
    for name in SECTION_ORDER:
        section = frame.sections[name]
        h.update(struct.pack("<Q", len(section)) + section)
    assert h.hexdigest() == GOLDEN[f"auto:{winner}"], (
        f"auto frame with a {winner} winner changed — see module docstring"
    )


def _decoded_digest(out: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()


@pytest.mark.parametrize("golden", [
    "none", "cmpr_encr", "encr_quant", "encr_huffman", "encr_huffman_raw",
    "ctr:cmpr_encr", "ctr:encr_quant", "ctr:encr_huffman",
    "ctr:encr_huffman_raw",
])
def test_golden_container_decodes_to_pinned_field(golden, reference_data):
    """Each GOLDEN container (CBC and CTR) decodes to the pinned field
    bytes, so a reader change cannot move a decoded value."""
    cipher_mode, _, scheme = golden.rpartition(":")
    sc = SecureCompressor(
        scheme, 1e-4, key=KEY, cipher_mode=cipher_mode or "cbc",
        allow_nonce_reuse=bool(cipher_mode),
        random_state=np.random.default_rng(42),
    )
    blob = sc.compress(reference_data).container
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[golden]
    out = sc.decompress(blob)
    assert out.dtype == reference_data.dtype
    assert out.shape == reference_data.shape
    assert _decoded_digest(out) == DECODED["q2"]


def test_v3_frame_decodes_to_pinned_field(reference_data):
    comp = SZCompressor(1e-4, huffman_lanes=4, anchor_stride=1024)
    frame = comp.compress(reference_data)
    assert SZCompressor.parse_meta(frame.sections["meta"])["version"] == 3
    assert _decoded_digest(comp.decompress(frame)) == DECODED["q2"]


@pytest.mark.parametrize("dataset,eb,winner", [
    ("nyx", 1e-4, "mean"),
    ("wf48", 1e-6, "regression"),
])
def test_auto_frame_decodes_to_pinned_field(dataset, eb, winner):
    comp = SZCompressor(eb)
    frame = comp.compress(np.asarray(generate(dataset, size="tiny")))
    assert frame.stats.predictor == winner
    assert _decoded_digest(comp.decompress(frame)) == DECODED[f"auto:{winner}"]


def test_old_golden_container_still_decodes(reference_data):
    # Byte-stability implies decodability, but check the semantic
    # contract end-to-end anyway.
    sc = SecureCompressor(
        "encr_huffman", 1e-4, key=KEY,
        random_state=np.random.default_rng(42),
    )
    blob = sc.compress(reference_data).container
    out = sc.decompress(blob)
    err = np.max(np.abs(out.astype(np.float64)
                        - reference_data.astype(np.float64)))
    assert err <= 1e-4


def test_lz7h_frame_digest_stable():
    """The LZ7H frame writer is fully deterministic; pin its bytes so
    matcher or entropy-coder drift cannot silently change the format."""
    from repro.sz import lz77

    data = b"".join(b"shard %04d: loss=%.3f\n" % (i, 1.0 / (i + 1))
                    for i in range(1500))
    blob = lz77.compress(data)
    assert lz77.decompress(blob) == data
    assert hashlib.sha256(blob).hexdigest() == GOLDEN["lz7h"], (
        "LZ7H frame bytes changed — wire-format regression, or a "
        "deliberate format change that needs a version bump (§11)"
    )


def test_secb_v2_archive_digest_stable(tmp_path, reference_data):
    """A fully-seeded SECB v2 archive build (CBC IVs included) must
    reproduce byte-identically; archive frame drift fails here."""
    from repro.archive import ArchiveStore

    path = str(tmp_path / "golden.secb")
    store = ArchiveStore.create(
        path, key=KEY, cipher_mode="cbc",
        random_state=np.random.default_rng(42),
        chunk_bits=10, min_chunk=256, max_chunk=4096,
    )
    log = b"".join(b"step %06d ok\n" % i for i in range(900))
    store.add_bytes("log", log, codec="lz77h")
    store.add_bytes("log-copy", log, codec="lz77h")
    store.add_field("q2", reference_data, scheme="encr_huffman",
                    error_bound=1e-4)
    with open(path, "rb") as fh:
        blob = fh.read()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN["secb_v2"], (
        "SECB v2 archive bytes changed — wire-format regression, or a "
        "deliberate format change that needs a version bump (§10.2)"
    )


# ----------------------------------------------------------------------
# v1 read-back compatibility
# ----------------------------------------------------------------------

with open(os.path.join(V1_DIR, "manifest.json")) as _f:
    V1_MANIFEST = json.load(_f)


@pytest.mark.parametrize("scheme", sorted(V1_MANIFEST))
def test_v1_container_decodes_bit_exactly(scheme):
    """Containers written before the multi-lane format (container v1,
    frame v2) must keep decoding to the *identical* field bytes."""
    entry = V1_MANIFEST[scheme]
    with open(os.path.join(V1_DIR, f"{scheme}.secz"), "rb") as f:
        blob = f.read()
    # The stored container must itself be pristine (fixture integrity).
    assert hashlib.sha256(blob).hexdigest() == entry["container_sha256"]
    sc = SecureCompressor(scheme, 1e-4, key=KEY)
    out = sc.decompress(blob)
    assert str(out.dtype) == entry["decoded_dtype"]
    assert list(out.shape) == entry["decoded_shape"]
    assert hashlib.sha256(out.tobytes()).hexdigest() == entry["decoded_sha256"], (
        f"v1 {scheme} container no longer decodes bit-exactly — the legacy "
        "single-stream decode path regressed"
    )


def test_v1_decode_matches_error_bound():
    """The v1 fixture field still reconstructs within its error bound."""
    field = np.load(os.path.join(V1_DIR, "reference_field.npy"))
    with open(os.path.join(V1_DIR, "none.secz"), "rb") as f:
        blob = f.read()
    out = SecureCompressor("none", 1e-4).decompress(blob)
    err = np.max(np.abs(out.astype(np.float64) - field.astype(np.float64)))
    assert err <= 1e-4
