"""docs/FORMAT.md cross-check: parse real containers with only ``struct``.

These tests re-implement the readers from the byte offsets documented
in docs/FORMAT.md — no repro parsing code — and run them against the
v1 golden fixtures and freshly written v3 frames.  If the code and the
spec ever disagree, one of these fails.
"""

import json
import os
import struct
import zlib

import numpy as np
import pytest

from repro.sz.compressor import SZCompressor

HERE = os.path.dirname(os.path.abspath(__file__))
V1_DIR = os.path.join(HERE, "data", "v1_containers")
FORMAT_MD = os.path.join(HERE, os.pardir, "docs", "FORMAT.md")

with open(os.path.join(V1_DIR, "manifest.json")) as fh:
    MANIFEST = json.load(fh)

# Documented registries (FORMAT.md §1).
SCHEME_IDS = {"none": 0, "cmpr_encr": 1, "encr_quant": 2,
              "encr_huffman": 3, "encr_huffman_raw": 4}
SECTION_NAMES = {0: "meta", 1: "tree", 2: "codes", 3: "unpred",
                 4: "coeffs", 5: "exact", 6: "cipher", 7: "zblob",
                 8: "aux"}

CONTAINER_HEADER = struct.Struct("<4sBBBB16sB")
ENTRY = struct.Struct("<BQ")
FRAME_META = struct.Struct("<4sBBBBBBIdqQQ")
TREE_HEADER = struct.Struct("<IB")
LANE_HEADER = struct.Struct("<4sHII")


def parse_sections(blob, offset, n_sections):
    """Walk a section table + payloads exactly as FORMAT.md documents."""
    table = []
    for _ in range(n_sections):
        sid, length = ENTRY.unpack_from(blob, offset)
        assert sid in SECTION_NAMES, f"undocumented section id {sid}"
        table.append((SECTION_NAMES[sid], length))
        offset += ENTRY.size
    sections = {}
    for name, length in table:
        sections[name] = blob[offset:offset + length]
        offset += length
    return sections, offset


def parse_inner_blob(blob):
    """Parse a pack_sections framing: count byte, table, payloads."""
    (n_sections,) = struct.unpack_from("<B", blob)
    sections, end = parse_sections(blob, 1, n_sections)
    assert end == len(blob), "trailing bytes after inner sections"
    return sections


def parse_frame_meta(meta):
    fields = FRAME_META.unpack_from(meta)
    (magic, version, dtype, predictor, flags, ndim,
     block_size, radius, eb, modal, n_code_bits, n_unpred) = fields
    assert magic == b"SZfr"
    assert 2 <= version <= 3
    assert dtype in (0, 1)
    assert predictor in (0, 1, 2)
    # flags bitfield (FORMAT.md §3): 0x01 = PW_REL, 0x02 = DEPTH_LIMITED
    assert flags & ~0x03 == 0
    shape = struct.unpack_from(f"<{ndim}Q", meta, FRAME_META.size)
    assert len(meta) == FRAME_META.size + 8 * ndim
    return {"version": version, "dtype": dtype, "shape": shape,
            "n_code_bits": n_code_bits, "n_unpred": n_unpred,
            "radius": radius, "eb": eb}


@pytest.mark.parametrize("scheme", sorted(MANIFEST))
def test_v1_container_header_matches_spec(scheme):
    """The 25-byte header fields sit exactly where FORMAT.md says."""
    with open(os.path.join(V1_DIR, f"{scheme}.secz"), "rb") as fh:
        blob = fh.read()
    magic, version, scheme_id, mode_id, iv_len, iv16, n_sections = (
        CONTAINER_HEADER.unpack_from(blob)
    )
    assert magic == b"SECZ"
    assert version == 1  # fixtures predate the multi-lane format
    assert scheme_id == SCHEME_IDS[scheme]
    assert mode_id in (0, 1)
    # The pipeline writes a fresh IV regardless of scheme (unused
    # by `none`, but the header slot is always populated).
    assert iv_len == 16
    # Zero-padding invariant: bytes past iv_len are \x00.
    assert iv16[iv_len:] == b"\x00" * (16 - iv_len)

    # The section table + payloads must account for every byte.
    sections, end = parse_sections(blob, CONTAINER_HEADER.size, n_sections)
    assert end == len(blob)
    # Scheme → emitted sections table from FORMAT.md §1.
    expected = {"cmpr_encr": {"cipher"}}.get(scheme, {"zblob"})
    assert set(sections) == expected


def test_v1_none_scheme_decodes_with_struct_and_zlib_only():
    """Follow the documented layers all the way to the frame meta."""
    with open(os.path.join(V1_DIR, "none.secz"), "rb") as fh:
        blob = fh.read()
    _, _, _, _, _, _, n_sections = CONTAINER_HEADER.unpack_from(blob)
    sections, _ = parse_sections(blob, CONTAINER_HEADER.size, n_sections)

    inner = parse_inner_blob(zlib.decompress(sections["zblob"]))
    # All seven frame sections, names straight from the id registry.
    assert set(inner) == {"meta", "tree", "codes", "unpred", "coeffs",
                          "exact", "aux"}

    info = parse_frame_meta(inner["meta"])
    assert list(info["shape"]) == MANIFEST["none"]["decoded_shape"]
    assert info["dtype"] == 0  # float32, per the manifest
    assert MANIFEST["none"]["decoded_dtype"] == "float32"
    # v1 fixtures carry the single-stream frame: codes byte length is
    # exactly ceil(n_code_bits / 8) (FORMAT.md §6).
    assert len(inner["codes"]) == (info["n_code_bits"] + 7) // 8

    # Bare tree section (§4): header, varints, trailing length bytes.
    n_symbols, max_len = TREE_HEADER.unpack_from(inner["tree"])
    assert 0 < n_symbols <= info["radius"] * 2 + 2
    assert 1 <= max_len <= 24
    lengths = inner["tree"][-n_symbols:]
    assert max(lengths) == max_len
    assert min(lengths) >= 1


def test_v1_encr_huffman_keeps_only_tree_encrypted():
    """§1: encr_huffman's inner blob is cipher + six plaintext sections."""
    with open(os.path.join(V1_DIR, "encr_huffman.secz"), "rb") as fh:
        blob = fh.read()
    _, _, _, _, _, _, n_sections = CONTAINER_HEADER.unpack_from(blob)
    sections, _ = parse_sections(blob, CONTAINER_HEADER.size, n_sections)
    inner = parse_inner_blob(zlib.decompress(sections["zblob"]))
    assert set(inner) == {"cipher", "meta", "codes", "unpred", "coeffs",
                          "exact", "aux"}
    # The plaintext meta still parses — only the tree is ciphertext.
    info = parse_frame_meta(inner["meta"])
    assert list(info["shape"]) == MANIFEST["encr_huffman"]["decoded_shape"]
    # CBC ciphertext: a whole number of AES blocks.
    assert len(inner["cipher"]) % 16 == 0 and len(inner["cipher"]) > 0


def test_fresh_v3_frame_lane_table_matches_spec():
    """Write a multi-lane frame and parse §3/§5/§6 byte-by-byte."""
    rng = np.random.default_rng(7)
    data = np.cumsum(rng.standard_normal((48, 48, 48)), axis=-1)
    data = data.astype(np.float32)
    comp = SZCompressor(error_bound=1e-3, huffman_lanes=8,
                        anchor_stride=64)
    frame = comp.compress(data)

    info = parse_frame_meta(frame.sections["meta"])
    assert info["version"] == 3
    assert info["shape"] == (48, 48, 48)

    tree = frame.sections["tree"]
    magic, n_lanes, stride, varint_len = LANE_HEADER.unpack_from(tree)
    assert magic == b"HLT1"
    assert n_lanes == 8
    assert stride == 64

    off = LANE_HEADER.size
    lane_bits = np.frombuffer(tree, dtype="<i8", offset=off, count=n_lanes)
    off += 8 * n_lanes
    # §6: codes is the byte-padded lane streams, concatenated.
    assert len(frame.sections["codes"]) == int(((lane_bits + 7) // 8).sum())
    # n_code_bits in the meta is the sum of the per-lane bit lengths.
    assert info["n_code_bits"] == int(lane_bits.sum())

    off += varint_len
    # The bare tree (§4) follows the anchor block, verbatim.
    n_symbols, max_len = TREE_HEADER.unpack_from(tree, off)
    assert n_symbols >= 1 and 1 <= max_len <= 24
    lengths = tree[-n_symbols:]
    assert max(lengths) == max_len

    # Lane split rule (§5): np.array_split over the coded values.
    n_values = data.size - info["n_unpred"]
    base, extra = divmod(n_values, n_lanes)
    sizes = np.full(n_lanes, base, dtype=np.int64)
    sizes[:extra] += 1
    # Anchor count per lane: max(0, ceil(size/stride) - 1), all deltas
    # strictly positive varints — just confirm the block is non-empty
    # exactly when an anchor exists.
    expect_anchors = int(np.maximum(0, -(-sizes // stride) - 1).sum())
    assert (varint_len > 0) == (expect_anchors > 0)

    # Round-trip through the real decoder to prove the hand-parse
    # looked at the same bytes the library does.
    out = comp.decompress(frame)
    assert np.max(np.abs(out - data)) <= 1e-3 * 1.0001


def test_fresh_v2_frame_is_single_stream():
    """Small payloads write the legacy v2 frame (§3): bare tree, one
    stream, byte length ceil(n_code_bits/8)."""
    data = np.linspace(0, 1, 4096, dtype=np.float32).reshape(16, 16, 16)
    comp = SZCompressor(error_bound=1e-3)
    frame = comp.compress(data)
    info = parse_frame_meta(frame.sections["meta"])
    assert info["version"] == 2
    assert len(frame.sections["codes"]) == (info["n_code_bits"] + 7) // 8
    n_symbols, max_len = TREE_HEADER.unpack_from(frame.sections["tree"])
    assert n_symbols >= 1 and max_len <= 24


def test_secb_fixture(tmp_path):
    """§10.1: re-parse the checked-in multi-field SECB v1 archive with
    only struct/zlib — index walk, partial-read offsets, and the
    per-field SECZ containers inside — then import it into a v2 store."""
    import hashlib

    secb_dir = os.path.join(HERE, "data", "secb")
    with open(os.path.join(secb_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    with open(os.path.join(secb_dir, "archive.secb"), "rb") as fh:
        blob = fh.read()
    assert hashlib.sha256(blob).hexdigest() == manifest["archive_sha256"]

    # Header: '<4sI' magic + field count.
    magic, count = struct.unpack_from("<4sI", blob)
    assert magic == b"SECB"
    assert count == len(manifest["fields"])

    # Index walk: u16 name length, name, u64 container length.
    offset = struct.calcsize("<4sI")
    entries = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        name = blob[offset:offset + name_len].decode("utf-8")
        offset += name_len
        (length,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        entries.append((name, length))
    assert {name for name, _ in entries} == set(manifest["fields"])

    # Containers back-to-back, accounting for every byte of the blob.
    for name, length in entries:
        container = blob[offset:offset + length]
        offset += length
        # Each field is a full SECZ container (§1) under one scheme.
        (cmagic, version, scheme_id, mode_id, iv_len, iv16,
         n_sections) = CONTAINER_HEADER.unpack_from(container)
        assert cmagic == b"SECZ"
        assert scheme_id == SCHEME_IDS[manifest["scheme"]]
        assert iv_len == 16
        sections, end = parse_sections(
            container, CONTAINER_HEADER.size, n_sections
        )
        assert end == len(container)
        # encr_huffman: plaintext zblob wrapping cipher + six sections,
        # so the field's frame meta parses without the key.
        inner = parse_inner_blob(zlib.decompress(sections["zblob"]))
        info = parse_frame_meta(inner["meta"])
        assert list(info["shape"]) == manifest["fields"][name]["shape"]
    assert offset == len(blob), "archive length must match its index"

    # The real reader agrees with the hand-parse: every imported field
    # reproduces its pinned plaintext digest.
    from repro.archive import ArchiveStore

    store = ArchiveStore.create(
        tmp_path / "imported.secb", key=bytes.fromhex(manifest["key_hex"])
    )
    assert store.import_secb_v1(blob) == [name for name, _ in entries]
    assert {row["name"]: row["error_bound"] for row in store.entries()} == {
        name: meta["error_bound"] for name, meta in manifest["fields"].items()
    }
    for name, meta in manifest["fields"].items():
        out = store.extract_field(name)
        assert list(out.shape) == meta["shape"]
        assert str(out.dtype) == meta["dtype"]
        digest = hashlib.sha256(
            np.ascontiguousarray(out).tobytes()
        ).hexdigest()
        assert digest == meta["decoded_sha256"]


V2_HEAD = struct.Struct("<4sBBH")
V2_COUNTS = struct.Struct("<II")
V2_BLOB = struct.Struct("<32s32sQQQIBB16s")
V2_ENTRY = struct.Struct("<BBBdQ32sI")
V2_FOOT = struct.Struct("<QQ32s4s")
LZ_HEADER = struct.Struct("<4sBBIIQQQQQQ")


def parse_secb_v2(blob):
    """Walk a SECB v2 archive exactly as FORMAT.md §10.2 documents —
    struct/hashlib only, no repro parsing code."""
    import hashlib

    magic, version, flags, reserved = V2_HEAD.unpack_from(blob)
    assert magic == b"SEB2"
    assert version == 2
    assert flags == reserved == 0
    index_off, index_len, index_sha, foot_magic = V2_FOOT.unpack(
        blob[-V2_FOOT.size:]
    )
    assert foot_magic == b"SEB2"
    assert index_off + index_len + V2_FOOT.size == len(blob)
    index = blob[index_off:index_off + index_len]
    assert hashlib.sha256(index).digest() == index_sha

    n_blobs, n_entries = V2_COUNTS.unpack_from(index)
    off = V2_COUNTS.size
    blobs = {}
    for _ in range(n_blobs):
        rec = V2_BLOB.unpack_from(index, off)
        off += V2_BLOB.size
        (raw_sha, stored_sha, b_off, stored_len, raw_len,
         refcount, codec, enc, iv) = rec
        # Stored bytes hash to the recorded digest — keyless audit.
        stored = blob[b_off:b_off + stored_len]
        assert hashlib.sha256(stored).digest() == stored_sha
        assert codec in (0, 1, 2, 3) and enc in (0, 1, 2)
        blobs[raw_sha] = {"refcount": refcount, "raw_len": raw_len}
    entries = {}
    for _ in range(n_entries):
        (name_len,) = struct.unpack_from("<H", index, off)
        off += 2
        name = index[off:off + name_len].decode("utf-8")
        off += name_len
        (kind, scheme_id, codec, eb, raw_size, content_sha,
         n_chunks) = V2_ENTRY.unpack_from(index, off)
        off += V2_ENTRY.size
        digests = [index[off + i * 32:off + (i + 1) * 32]
                   for i in range(n_chunks)]
        off += 32 * n_chunks
        assert kind in (0, 1)
        assert scheme_id in SCHEME_IDS.values()
        entries[name] = {"kind": kind, "raw_size": raw_size,
                         "digests": digests, "content_sha": content_sha}
    assert off == len(index), "index must account for every byte"
    for name, ent in entries.items():
        for digest in ent["digests"]:
            assert digest in blobs, f"{name}: dangling digest"
        assert sum(blobs[d]["raw_len"] for d in ent["digests"]) == \
            ent["raw_size"]
    refs = {}
    for ent in entries.values():
        for digest in ent["digests"]:
            refs[digest] = refs.get(digest, 0) + 1
    for digest, meta in blobs.items():
        assert meta["refcount"] == refs.get(digest, 0)
    return blobs, entries


def test_fresh_secb_v2_archive_matches_spec(tmp_path):
    """Write a v2 archive with the real store and re-parse it §10.2
    byte-by-byte, including the store-once dedup it promises."""
    from repro.archive import ArchiveStore

    path = str(tmp_path / "fresh.secb")
    store = ArchiveStore.create(path, key=bytes(range(16)))
    # Unique (non-periodic) content: every chunk is distinct, so the
    # only dedup comes from the duplicated entry — refcounts pin at 2.
    shard = np.random.default_rng(5).integers(
        0, 256, 76_800, dtype=np.uint8
    ).tobytes()
    store.add_bytes("a", shard, codec="lz77h")
    store.add_bytes("b", shard, codec="lz77h")  # dedup: same blobs
    with open(path, "rb") as fh:
        blob = fh.read()
    blobs, entries = parse_secb_v2(blob)
    assert set(entries) == {"a", "b"}
    assert entries["a"]["digests"] == entries["b"]["digests"]
    assert all(meta["refcount"] == 2 for meta in blobs.values())


def test_secb_v2_fixture():
    """§10.2: re-parse the checked-in SECB v2 archive with struct and
    hashlib only, then agree with the real reader on every entry."""
    import hashlib

    from repro.archive import ArchiveStore

    v2_dir = os.path.join(HERE, "data", "secb_v2")
    with open(os.path.join(v2_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    with open(os.path.join(v2_dir, "archive.secb"), "rb") as fh:
        blob = fh.read()
    assert hashlib.sha256(blob).hexdigest() == manifest["archive_sha256"]

    blobs, entries = parse_secb_v2(blob)
    assert set(entries) == set(manifest["entries"])
    # Store-once dedup: the duplicated shard shares every chunk digest,
    # so those blobs carry refcount 2.
    assert entries["shard-0"]["digests"] == entries["shard-1"]["digests"]
    for digest in entries["shard-0"]["digests"]:
        assert blobs[digest]["refcount"] == 2
    stats = manifest["stats"]
    assert len(blobs) == stats["blobs"]
    assert sum(e["raw_size"] for e in entries.values()) == \
        stats["raw_bytes"]

    # The real reader reproduces the pinned plaintext digests.
    store = ArchiveStore(
        os.path.join(v2_dir, "archive.secb"),
        key=bytes.fromhex(manifest["key_hex"]),
        cipher_mode=manifest["cipher_mode"],
    )
    assert store.verify(deep=True) == []
    for name, meta in manifest["entries"].items():
        if meta["kind"] == "field":
            out = store.extract_field(name)
            assert list(out.shape) == meta["shape"]
            assert str(out.dtype) == meta["dtype"]
            digest = hashlib.sha256(out.tobytes()).hexdigest()
            assert digest == meta["decoded_sha256"]
        else:
            digest = hashlib.sha256(store.extract_bytes(name)).hexdigest()
            assert digest == meta["sha256"]


def test_fresh_lz7h_frame_matches_spec():
    """Parse an LZ7H frame header (§11) with struct only and check the
    documented cross-invariants."""
    from repro.sz import lz77

    data = b"the quick brown fox jumps over the lazy dog " * 200
    blob = lz77.compress(data)
    (magic, version, reserved, tok_tree_len, dst_tree_len, raw_len,
     n_tokens, n_matches, tok_bits, dst_bits, extra_bits) = (
        LZ_HEADER.unpack_from(blob)
    )
    assert magic == b"LZ7H"
    assert version == 1 and reserved == 0
    assert raw_len == len(data)
    assert n_matches <= n_tokens
    # Frame length is fully determined by the header (§11).
    expected = (LZ_HEADER.size + tok_tree_len + dst_tree_len
                + (tok_bits + 7) // 8 + (dst_bits + 7) // 8
                + (extra_bits + 7) // 8)
    assert len(blob) == expected
    # Both trees start with the bare tree header (§4).
    n_sym, max_len = TREE_HEADER.unpack_from(blob, LZ_HEADER.size)
    assert n_sym >= 1 and 1 <= max_len <= 24
    assert lz77.decompress(blob) == data


def test_format_md_documents_the_live_constants():
    """The spec must quote the real struct strings, magics and ids."""
    with open(FORMAT_MD) as fh:
        text = fh.read()
    for needle in (
        "<4sBBBB16sB",    # container header
        "<4sBBBBBBIdqQQ", # frame meta
        "<4sHII",         # lane header
        "<IB",            # bare tree header
        "<BQ",            # section entry / byteplane header
        "<4sI",           # SECB v1 archive header
        "<4sBBH",         # SECB v2 header
        "<II",            # SECB v2 index counts
        "<32s32sQQQIBB16s",  # SECB v2 blob record
        "<BBBdQ32sI",     # SECB v2 entry record
        "<QQ32s4s",       # SECB v2 footer
        "<4sBBIIQQQQQQ",  # LZ7H frame header
        "SECZ", "SECA", "SECM", "SECB", "SEB2", "SZfr", "HLT1", "LZ7H",
        "repro.secz/mac-key/v1",
    ):
        assert needle in text, f"FORMAT.md no longer documents {needle!r}"
    # Section and scheme registries, id and name both present.
    for name, sid in SCHEME_IDS.items():
        assert name in text
    for sid, name in SECTION_NAMES.items():
        assert f"`{name}`" in text
