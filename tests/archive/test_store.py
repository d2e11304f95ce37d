"""SECB v2 store semantics: round-trip, store-once dedup, refcounts,
incremental append, gc compaction, and scheme/codec metadata."""

import os

import numpy as np
import pytest

from repro.archive import ArchiveCorrupt, ArchiveStore
from repro.archive.chunker import chunk_boundaries, split
from repro.core import trace

from tests.fuzz import corpus

KEY = bytes(range(16))


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "a.secb")


def _mixed_store(path, **kwargs):
    store = ArchiveStore.create(path, key=KEY, **kwargs)
    store.add_bytes("log", corpus.build("text_log"), codec="lz77h")
    store.add_bytes("noise", corpus.build("random"), codec="zlib")
    store.add_field("field", np.linspace(0, 1, 4096, dtype=np.float32)
                    .reshape(16, 16, 16), error_bound=1e-3)
    return store


class TestChunker:
    def test_boundaries_tile_the_input(self):
        for name in corpus.names():
            data = corpus.build(name)
            cuts = chunk_boundaries(data)
            assert cuts[-1] == len(data)
            assert all(b > a for a, b in zip(cuts, cuts[1:]))
            assert b"".join(split(data)) == data

    def test_chunking_is_content_defined(self):
        """A prefix insertion must not shift every later boundary."""
        base = corpus.build("text_log") * 3
        shifted = b"X" * 7 + base
        a = set(split(base, chunk_bits=9, min_size=64, max_size=4096))
        b = set(split(shifted, chunk_bits=9, min_size=64, max_size=4096))
        assert len(a & b) >= len(a) // 2

    def test_bounds_enforced(self):
        data = corpus.build("low_entropy")
        cuts = chunk_boundaries(data, chunk_bits=6, min_size=128,
                                max_size=512)
        sizes = np.diff([0] + cuts)
        assert sizes.max() <= 512
        assert (sizes[:-1] >= 128).all()  # the tail may be short

    def test_deterministic(self):
        data = corpus.build("runs")
        assert chunk_boundaries(data) == chunk_boundaries(data)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            chunk_boundaries(b"x", chunk_bits=0)
        with pytest.raises(ValueError):
            chunk_boundaries(b"x", min_size=64, max_size=32)


class TestRoundTrip:
    def test_mixed_corpus(self, path):
        store = _mixed_store(path)
        assert store.extract_bytes("log") == corpus.build("text_log")
        assert store.extract_bytes("noise") == corpus.build("random")
        out = store.extract_field("field")
        assert out.shape == (16, 16, 16)
        assert np.max(np.abs(
            out - np.linspace(0, 1, 4096, dtype=np.float32)
            .reshape(16, 16, 16)
        )) <= 1e-3 * 1.0001
        assert store.verify(deep=True) == []

    @pytest.mark.parametrize("codec", ["store", "zlib", "lz77h",
                                       "lz77h+zlib"])
    @pytest.mark.parametrize("mode", ["cbc", "ctr"])
    def test_every_codec_under_both_modes(self, tmp_path, codec, mode):
        p = str(tmp_path / f"{codec}-{mode}.secb")
        store = ArchiveStore.create(p, key=KEY, cipher_mode=mode)
        data = corpus.build("periodic")
        store.add_bytes("x", data, codec=codec)
        assert store.extract_bytes("x") == data
        reopened = ArchiveStore(p, key=KEY, cipher_mode=mode)
        assert reopened.extract_bytes("x") == data

    def test_keyless_archive(self, path):
        store = ArchiveStore.create(path)
        store.add_bytes("x", corpus.build("runs"), codec="lz77h")
        assert store.extract_bytes("x") == corpus.build("runs")
        assert store.verify(deep=True) == []
        row = store.entries()[0]
        assert row["scheme"] == "none"

    def test_reopen_and_append(self, path):
        _mixed_store(path)
        store = ArchiveStore(path, key=KEY)
        store.add_bytes("later", corpus.build("periodic"))
        assert sorted(store.names()) == ["field", "later", "log", "noise"]
        again = ArchiveStore(path, key=KEY)
        assert again.extract_bytes("later") == corpus.build("periodic")
        assert again.verify(deep=True) == []

    def test_append_does_not_rewrite_blobs(self, path):
        """Incremental append: existing blob bytes stay in place."""
        store = ArchiveStore.create(path, key=KEY)
        store.add_bytes("a", corpus.build("text_log"))
        offsets = {
            rec.offset: rec.stored_sha
            for rec in store._blobs.values()
        }
        store.add_bytes("b", corpus.build("random"))
        for off, sha in offsets.items():
            rec = next(r for r in store._blobs.values()
                       if r.offset == off)
            assert rec.stored_sha == sha

    def test_duplicate_name_rejected(self, path):
        store = ArchiveStore.create(path, key=KEY)
        store.add_bytes("x", b"abc" * 1000)
        with pytest.raises(ValueError, match="already has an entry"):
            store.add_bytes("x", b"def" * 1000)

    def test_kind_mismatch_rejected(self, path):
        store = _mixed_store(path)
        with pytest.raises(ValueError, match="use extract_field"):
            store.extract_bytes("field")
        with pytest.raises(ValueError, match="use extract_bytes"):
            store.extract_field("log")


class TestSealing:
    def test_key_expanded_once_per_store(self, path, monkeypatch):
        """Every blob of an open store seals and unseals under the one
        key schedule built when the store opened."""
        from repro.crypto import aes

        store = ArchiveStore.create(path, key=KEY)
        expanded = []
        real = aes.expand_key
        monkeypatch.setattr(
            aes, "expand_key", lambda key: expanded.append(key) or real(key)
        )
        data = corpus.build("text_log")
        store.add_bytes("log", data, codec="lz77h")
        assert store.entries()[0]["n_chunks"] > 1
        assert store.extract_bytes("log") == data
        assert expanded == []

    def test_field_entries_expand_key_once_per_scheme(self, path, monkeypatch):
        """Importing a v1 bundle of three encr_huffman fields, then
        adding and extracting three more at different bounds, shares
        one schedule for the scheme: two expansions in all, counting
        the store's blob cipher."""
        from repro.crypto import aes

        expanded = []
        real = aes.expand_key
        monkeypatch.setattr(
            aes, "expand_key", lambda key: expanded.append(key) or real(key)
        )
        secb = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                            "secb", "archive.secb")
        with open(secb, "rb") as fh:
            bundle = fh.read()
        store = ArchiveStore.create(path, key=KEY)
        assert len(store.import_secb_v1(bundle)) == 3
        field = np.linspace(0, 1, 4096, dtype=np.float32).reshape(16, 16, 16)
        ebs = {"f2": 1e-2, "f3": 1e-3, "f4": 1e-4}
        for name, eb in ebs.items():
            store.add_field(name, field, error_bound=eb)
        for name, eb in ebs.items():
            assert np.max(np.abs(store.extract_field(name) - field)) <= eb
        assert len(expanded) == 2

    @pytest.mark.parametrize("mode, enc", [("cbc", 1), ("ctr", 2)])
    def test_keyed_store_seals_field_entries(self, path, mode, enc):
        """Field chunks are stored uncoded but sealed like every blob
        of a keyed store, whatever the field's own scheme."""
        store = ArchiveStore.create(path, key=KEY, cipher_mode=mode)
        field = np.linspace(0, 1, 4096, dtype=np.float32).reshape(16, 16, 16)
        for scheme in ("encr_huffman", "none"):
            store.add_field(scheme, field, scheme=scheme, error_bound=1e-3)
        reopened = ArchiveStore(path, key=KEY, cipher_mode=mode)
        for name in ("encr_huffman", "none"):
            digests = reopened._entries[name].chunks
            assert digests
            assert {reopened._blobs[d].enc for d in digests} == {enc}
            assert {reopened._blobs[d].codec for d in digests} == {0}

    def test_keyless_store_keeps_field_entries_plain(self, path):
        store = ArchiveStore.create(path)
        store.add_field("f", np.zeros((8, 8), np.float32), scheme="none")
        assert {store._blobs[d].enc for d in store._entries["f"].chunks} == {0}


class TestDedup:
    def test_duplicate_shard_stored_once(self, path):
        """The acceptance criterion: a duplicated checkpoint shard
        costs zero additional stored bytes."""
        shard = corpus.build("random") + corpus.build("periodic")
        store = ArchiveStore.create(path, key=KEY)
        store.add_bytes("shard-1", shard)
        stored_before = store.stats()["stored_bytes"]
        blobs_before = store.stats()["blobs"]
        store.add_bytes("shard-2", shard)
        st = store.stats()
        assert st["stored_bytes"] == stored_before
        assert st["blobs"] == blobs_before
        assert st["dedup_ratio"] > 1.9
        assert store.extract_bytes("shard-2") == shard

    def test_dedup_survives_random_ivs(self, path):
        """Dedup keys on the plaintext digest, so the fresh IV per
        sealed blob must not defeat it."""
        store = ArchiveStore.create(path, key=KEY)
        tr = trace.Tracer()
        store.add_bytes("a", corpus.build("low_entropy"))
        store.add_bytes("b", corpus.build("low_entropy"))
        counters = tr.export()["counters"]
        assert counters.get("archive.chunks_deduped", 0) > 0

    def test_refcounts_tracked(self, path):
        store = ArchiveStore.create(path, key=KEY)
        store.add_bytes("a", corpus.build("runs"))
        store.add_bytes("b", corpus.build("runs"))
        assert all(rec.refcount == 2 for rec in store._blobs.values())
        store.remove("a")
        assert all(rec.refcount == 1 for rec in store._blobs.values())
        assert store.verify(deep=True) == []


class TestGc:
    def test_gc_drops_unreferenced_blobs_and_compacts(self, path):
        store = _mixed_store(path)
        size_before = os.path.getsize(path)
        store.remove("noise")
        assert store.gc() > 0
        assert os.path.getsize(path) < size_before
        assert store.verify(deep=True) == []
        assert store.extract_bytes("log") == corpus.build("text_log")
        reopened = ArchiveStore(path, key=KEY)
        assert reopened.verify(deep=True) == []

    def test_gc_keeps_shared_blobs(self, path):
        store = ArchiveStore.create(path, key=KEY)
        store.add_bytes("a", corpus.build("periodic"))
        store.add_bytes("b", corpus.build("periodic"))
        store.remove("a")
        assert store.gc() == 0
        assert store.extract_bytes("b") == corpus.build("periodic")

    def test_gc_counter(self, path):
        store = _mixed_store(path)
        tr = trace.Tracer()
        store.remove("log")
        store.remove("noise")
        store.gc()
        assert tr.export()["counters"].get("archive.blobs_gced", 0) > 0


class TestConstruction:
    def test_create_refuses_overwrite(self, path):
        ArchiveStore.create(path)
        with pytest.raises(FileExistsError):
            ArchiveStore.create(path)

    def test_open_missing_file(self, path):
        with pytest.raises(FileNotFoundError):
            ArchiveStore(path)

    def test_bad_key_length(self, path):
        with pytest.raises(ValueError, match="16 bytes"):
            ArchiveStore.create(path, key=b"short")

    def test_ctr_with_seeded_rng_refused(self, path):
        with pytest.raises(ValueError, match="nonce"):
            ArchiveStore.create(
                path, key=KEY, cipher_mode="ctr",
                random_state=np.random.default_rng(1),
            )

    def test_wrong_key_fails_closed(self, path):
        _mixed_store(path)
        stranger = ArchiveStore(path, key=bytes(16))
        with pytest.raises((ArchiveCorrupt, ValueError)):
            stranger.extract_bytes("log")

    def test_field_scheme_requires_key(self, path):
        store = ArchiveStore.create(path)
        with pytest.raises(ValueError, match="key"):
            store.add_field("f", np.zeros((8, 8), np.float32))

    def test_invalid_utf8_entry_name_is_archive_corrupt(self, path):
        """A corrupted entry name must surface as ArchiveCorrupt, not a
        raw UnicodeDecodeError (found by the exception-contract sweep)."""
        from repro.archive.store import _V2_COUNTS, _V2_NAME

        store = ArchiveStore.create(path, key=KEY)
        bad_index = _V2_COUNTS.pack(0, 1) + _V2_NAME.pack(2) + b"\xff\xfe"
        with pytest.raises(ArchiveCorrupt, match="not valid UTF-8"):
            store._parse_index(bad_index, file_size=1 << 20)
