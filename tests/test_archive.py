"""Flat SECB v1 bundles, read through ``ArchiveStore.import_secb_v1``.

The bundles are built here, with ``struct`` only, from
``SecureCompressor`` containers exactly as FORMAT.md §10.1 lays them
out.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.archive import ArchiveStore
from repro.core.pipeline import SecureCompressor
from repro.datasets import generate


@pytest.fixture(scope="module")
def fields():
    return {
        "cloud": generate("cloudf48", size="tiny"),
        "wind": generate("wf48", size="tiny"),
        "temp": generate("t", size="tiny"),
    }


def containers(fields, key, scheme="encr_huffman", bounds=1e-3, **kwargs):
    """One seeded container per field, in field order."""
    rng = np.random.default_rng(7)
    out = {}
    for name, data in fields.items():
        eb = bounds[name] if isinstance(bounds, dict) else bounds
        sc = SecureCompressor(scheme, eb, key=key, random_state=rng, **kwargs)
        out[name] = sc.compress(data).container
    return out


def v1_bundle(entries):
    """A SECB v1 bundle: ``'<4sI'`` header, then per field ``'<H'`` name
    length, the name, ``'<Q'`` container length, then the containers.

    ``entries`` maps names (str, or raw bytes for hostile cases) to
    containers, or is a list of such pairs to allow duplicates.
    """
    pairs = list(entries.items()) if isinstance(entries, dict) else entries
    index = b""
    for name, container in pairs:
        raw = name.encode("utf-8") if isinstance(name, str) else name
        index += struct.pack("<H", len(raw)) + raw
        index += struct.pack("<Q", len(container))
    head = struct.pack("<4sI", b"SECB", len(pairs))
    return head + index + b"".join(c for _, c in pairs)


@pytest.fixture()
def store(tmp_path, key):
    store = ArchiveStore.create(tmp_path / "a.secb", key=key)
    store.add_bytes("log", b"step ok\n" * 300, codec="lz77h")
    return store


def max_err(a, b):
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))


class TestImportSecbV1:
    def test_import_extracts_every_field(self, fields, key, store):
        bundle = v1_bundle(containers(fields, key, bounds=1e-4))
        assert store.import_secb_v1(bundle) == list(fields)
        for name, data in fields.items():
            assert max_err(store.extract_field(name), data) <= 1e-4, name

    def test_per_field_bounds_read_from_frame_meta(self, fields, key, store):
        bounds = {"cloud": 1e-6, "wind": 1e-2, "temp": 1e-3}
        store.import_secb_v1(v1_bundle(containers(fields, key, bounds=bounds)))
        rows = {row["name"]: row for row in store.entries()}
        for name, eb in bounds.items():
            assert rows[name]["error_bound"] == eb
            assert max_err(store.extract_field(name), fields[name]) <= eb

    def test_containers_stored_verbatim_as_field_entries(
        self, fields, key, store, tmp_path
    ):
        bundle_fields = containers(fields, key)
        store.import_secb_v1(v1_bundle(bundle_fields))
        reopened = ArchiveStore(tmp_path / "a.secb", key=key)
        rows = {row["name"]: row for row in reopened.entries()}
        for name, container in bundle_fields.items():
            assert rows[name]["kind"] == "field"
            assert rows[name]["scheme"] == "encr_huffman"
            assert rows[name]["raw_size"] == len(container)
            entry = reopened._entries[name]
            assert entry.content_sha == hashlib.sha256(container).digest()
        assert reopened.verify(deep=True) == []
        # gc treats imported entries like any other.
        reopened.remove("wind")
        assert reopened.gc() > 0
        assert reopened.verify(deep=True) == []
        assert max_err(reopened.extract_field("temp"), fields["temp"]) <= 1e-3

    def test_cmpr_encr_bundle(self, fields, key, store):
        store.import_secb_v1(
            v1_bundle(containers(fields, key, scheme="cmpr_encr"))
        )
        rows = {row["name"]: row for row in store.entries()}
        assert rows["cloud"]["scheme"] == "cmpr_encr"
        assert max_err(store.extract_field("cloud"), fields["cloud"]) <= 1e-3

    def test_authenticated_bundle(self, fields, key, store):
        store.import_secb_v1(
            v1_bundle(containers(fields, key, authenticate=True))
        )
        assert max_err(store.extract_field("wind"), fields["wind"]) <= 1e-3

    def test_missing_field(self, fields, key, store):
        store.import_secb_v1(v1_bundle(containers(fields, key)))
        with pytest.raises(ValueError, match="no entry"):
            store.extract_field("pressure")


def _flip(blob: bytes, offset: int) -> bytes:
    out = bytearray(blob)
    out[offset] ^= 0x01
    return bytes(out)


@pytest.fixture(scope="module")
def bad_bundles(fields, key):
    """case -> (bundle, store key, expected message) for every bundle
    the importer refuses."""
    plain = containers(fields, key)
    good = v1_bundle(plain)
    tagged = containers(fields, key, authenticate=True)
    cmpr = containers(fields, key, scheme="cmpr_encr")
    return {
        "bad-magic": (b"XXXX" + good[4:], key, "bad magic"),
        "truncated-index": (good[:4 + 4 + 2 + 3], key, "truncated"),
        "truncated-container": (good[:-5], key, "does not match its index"),
        "trailing-bytes": (good + b"x", key, "does not match its index"),
        "duplicate-name": (
            v1_bundle([("t", plain["temp"]), ("t", plain["wind"])]), key,
            "duplicate field",
        ),
        "non-utf8-name": (
            v1_bundle([(b"\xff\xfe", plain["temp"])]), key, "UTF-8"
        ),
        "existing-name": (
            v1_bundle({"log": plain["temp"]}), key, "already has an entry"
        ),
        # A flipped ciphertext bit garbles the deflate stream under it.
        "tampered-container": (
            v1_bundle({**cmpr, "wind": _flip(cmpr["wind"], 60)}), key,
            "corrupt lossless stream",
        ),
        "tampered-tag": (
            v1_bundle({**tagged, "wind": _flip(tagged["wind"], 8)}), key,
            "failed authentication",
        ),
        "wrong-store-key": (good, bytes(16), "padding"),
        "keyless-store": (good, None, "requires a 16-byte key"),
    }


@pytest.mark.parametrize("case", [
    "bad-magic", "truncated-index", "truncated-container", "trailing-bytes",
    "duplicate-name", "non-utf8-name", "existing-name",
    "tampered-container", "tampered-tag", "wrong-store-key",
    "keyless-store",
])
def test_bad_bundle_leaves_store_unchanged(case, bad_bundles, tmp_path):
    bundle, store_key, message = bad_bundles[case]
    path = tmp_path / "a.secb"
    store = ArchiveStore.create(path, key=store_key)
    store.add_bytes("log", b"step ok\n" * 300)
    before = path.read_bytes()
    # ValueError covers its contractual subclasses, ArchiveCorrupt and
    # AuthenticationError; anything else fails the test.
    with pytest.raises(ValueError, match=message):
        store.import_secb_v1(bundle)
    assert store.names() == ["log"]
    assert path.read_bytes() == before
    assert ArchiveStore(path, key=store_key).names() == ["log"]
