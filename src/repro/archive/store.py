"""SECB v2: the content-addressed, deduplicating archive store.

The flat v1 bundle (:mod:`repro.archive.legacy`) stores every field's
container back-to-back; adding the same checkpoint shard twice costs
twice the bytes.  v2 splits each entry into content-defined chunks
(:mod:`repro.archive.chunker`), addresses every chunk by its SHA-256,
and stores each distinct chunk exactly once in a refcounted blob
table — the shape of a lab's archival job where most snapshots barely
differ from the last one.

Layout (single file; see docs/FORMAT.md §10.2 for the normative
byte-level spec)::

    header  '<4sBBH'          magic 'SEB2', version, flags, reserved
    blobs   sealed chunk payloads, back-to-back
    index   '<II' blob and entry counts
            per blob  '<32s32sQQQIBB16s'
            per entry '<H' + name utf-8 + '<BBBdQ32sI' + digest list
    footer  '<QQ32s4s'        index offset, length, SHA-256, magic

The index lives at the *tail* so an append never rewrites stored
blobs: new blobs overwrite the dead index region and a fresh index +
footer is written after them.  The footer hash makes index corruption
detectable without a key; every blob carries the SHA-256 of both its
stored (sealed) and raw (plaintext) bytes, so ``verify`` can audit
stored bytes keylessly and audit plaintext when a key is present.

Chunks are deduplicated on their *plaintext* digest, before
compression and encryption — otherwise the per-blob random IV would
make identical chunks incomparable.  That is convergent-storage
behaviour: an attacker with the archive (but not the key) can tell
that two entries share content.  For archival of one's own data under
one key this is the standard dedup/confidentiality trade and is
documented in FORMAT.md.

Compression stays compression-side, before encryption (the Klinc et
al. ordering the scheme registry already enforces): per-blob codecs
(``store``/``zlib``/``lz77h``/``lz77h+zlib``) run first, then AES-CBC
or AES-CTR seals the payload with a fresh IV per blob.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.archive import chunker
from repro.core import trace
from repro.core.pipeline import SecureCompressor
from repro.core.schemes import get_scheme
from repro.crypto.aes import AES128
from repro.crypto import rng as crypto_rng
from repro.sz import lossless, lz77

__all__ = ["ArchiveStore", "ArchiveCorrupt", "CODECS"]

_MAGIC2 = b"SEB2"
_VERSION = 2

_V2_HEAD = struct.Struct("<4sBBH")  # magic, version, flags, reserved
_V2_COUNTS = struct.Struct("<II")  # n_blobs, n_entries
# raw sha, stored sha, offset, stored len, raw len, refcount, codec,
# enc mode, iv
_V2_BLOB = struct.Struct("<32s32sQQQIBB16s")
_V2_NAME = struct.Struct("<H")  # entry name length, then utf-8 bytes
# kind, scheme id, codec, error bound, raw size, content sha, n chunks
_V2_ENTRY = struct.Struct("<BBBdQ32sI")
_V2_FOOT = struct.Struct("<QQ32s4s")  # index offset, len, sha, magic

_DIGEST = 32
_ZERO_IV = bytes(16)

#: Per-blob codec ids (byte values on the wire).
CODECS = {"store": 0, "zlib": 1, "lz77h": 2, "lz77h+zlib": 3}
_CODEC_NAMES = {v: k for k, v in CODECS.items()}

_ENC_NONE, _ENC_CBC, _ENC_CTR = 0, 1, 2
_ENC_BY_MODE = {"cbc": _ENC_CBC, "ctr": _ENC_CTR}

_KIND_RAW, _KIND_FIELD = 0, 1


class ArchiveCorrupt(ValueError):
    """A structural or cryptographic check on the archive failed.

    Raised by the read path (fail closed); :meth:`ArchiveStore.verify`
    reports the same conditions as a list instead of raising.
    """


def _sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _encode(chunk: bytes, codec: int) -> bytes:
    if codec == CODECS["store"]:
        return chunk
    if codec == CODECS["zlib"]:
        return lossless.compress(chunk)
    if codec == CODECS["lz77h"]:
        return lz77.compress(chunk)
    if codec == CODECS["lz77h+zlib"]:
        return lossless.compress(lz77.compress(chunk))
    raise ValueError(f"unknown codec id {codec}")


def _decode(payload: bytes, codec: int) -> bytes:
    if codec == CODECS["store"]:
        return payload
    if codec == CODECS["zlib"]:
        return lossless.decompress(payload)
    if codec == CODECS["lz77h"]:
        return lz77.decompress(payload)
    if codec == CODECS["lz77h+zlib"]:
        return lz77.decompress(lossless.decompress(payload))
    raise ArchiveCorrupt(f"unknown codec id {codec}")


@dataclass
class _Blob:
    raw_sha: bytes
    stored_sha: bytes
    offset: int
    stored_len: int
    raw_len: int
    refcount: int
    codec: int
    enc: int
    iv: bytes


@dataclass
class _Entry:
    name: str
    kind: int
    scheme_id: int
    codec: int
    error_bound: float
    raw_size: int
    content_sha: bytes
    chunks: list[bytes] = field(default_factory=list)


class ArchiveStore:
    """A SECB v2 archive on disk.

    Examples
    --------
    >>> import numpy as np, tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "a.secb")
    >>> store = ArchiveStore.create(path, key=bytes(range(16)))
    >>> store.add_bytes("log", b"step 1 ok\\n" * 400, codec="lz77h")
    >>> store.add_field("t", np.zeros((8, 8), np.float32),
    ...                 error_bound=1e-3)
    >>> sorted(store.names())
    ['log', 't']
    >>> store.extract_bytes("log")[:10]
    b'step 1 ok\\n'
    >>> store.verify()
    []
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        key: bytes | None = None,
        cipher_mode: str = "cbc",
        random_state: np.random.Generator | None = None,
        chunk_bits: int = chunker.DEFAULT_CHUNK_BITS,
        min_chunk: int = chunker.DEFAULT_MIN_SIZE,
        max_chunk: int = chunker.DEFAULT_MAX_SIZE,
    ) -> None:
        if cipher_mode not in _ENC_BY_MODE:
            raise ValueError(f"unknown cipher mode {cipher_mode!r}")
        if key is not None and len(key) != 16:
            raise ValueError("key must be 16 bytes (AES-128)")
        crypto_rng.refuse_seeded_ctr(cipher_mode, random_state)
        self._path = os.fspath(path)
        self._key = key
        self._cipher_mode = cipher_mode
        self._rng = random_state
        self._chunk_kwargs = dict(
            chunk_bits=chunk_bits, min_size=min_chunk, max_size=max_chunk
        )
        self._blobs: dict[bytes, _Blob] = {}
        self._entries: dict[str, _Entry] = {}
        self._data_end = _V2_HEAD.size
        self._load()

    @classmethod
    def create(
        cls, path: str | os.PathLike[str], **kwargs
    ) -> "ArchiveStore":
        """Write a fresh empty archive at ``path`` and open it."""
        if os.path.exists(path):
            raise FileExistsError(f"archive already exists: {path!s}")
        head = _V2_HEAD.pack(_MAGIC2, _VERSION, 0, 0)
        index = _V2_COUNTS.pack(0, 0)
        foot = _V2_FOOT.pack(len(head), len(index), _sha(index), _MAGIC2)
        with open(path, "wb") as fh:
            fh.write(head + index + foot)
        return cls(path, **kwargs)

    # -- on-disk index ------------------------------------------------

    def _load(self) -> None:
        with open(self._path, "rb") as fh:
            blob = fh.read()
        floor = _V2_HEAD.size + _V2_COUNTS.size + _V2_FOOT.size
        if len(blob) < floor:
            raise ArchiveCorrupt("archive shorter than its fixed framing")
        magic, version, flags, reserved = _V2_HEAD.unpack_from(blob)
        if magic != _MAGIC2:
            raise ArchiveCorrupt("bad magic; not a SECB v2 archive")
        if version != _VERSION:
            raise ArchiveCorrupt(f"unsupported SECB version {version}")
        if flags or reserved:
            raise ArchiveCorrupt("reserved header bits set")
        index_off, index_len, index_sha, foot_magic = _V2_FOOT.unpack(
            blob[-_V2_FOOT.size:]
        )
        if foot_magic != _MAGIC2:
            raise ArchiveCorrupt("bad footer magic (truncated archive?)")
        if (
            index_off < _V2_HEAD.size
            or index_off + index_len + _V2_FOOT.size != len(blob)
        ):
            raise ArchiveCorrupt("footer index span does not match file")
        index = blob[index_off : index_off + index_len]
        if _sha(index) != index_sha:
            raise ArchiveCorrupt("index digest mismatch")
        self._parse_index(index, file_size=index_off)
        self._data_end = index_off

    def _parse_index(self, index: bytes, *, file_size: int) -> None:
        buf = io.BytesIO(index)

        def take(n: int, what: str) -> bytes:
            got = buf.read(n)
            if len(got) != n:
                raise ArchiveCorrupt(f"index truncated inside {what}")
            return got

        n_blobs, n_entries = _V2_COUNTS.unpack(
            take(_V2_COUNTS.size, "counts")
        )
        blobs: dict[bytes, _Blob] = {}
        for _ in range(n_blobs):
            rec = _Blob(*_V2_BLOB.unpack(take(_V2_BLOB.size, "blob record")))
            if rec.raw_sha in blobs:
                raise ArchiveCorrupt("duplicate blob digest in index")
            if rec.offset < _V2_HEAD.size or (
                rec.offset + rec.stored_len > file_size
            ):
                raise ArchiveCorrupt("blob extent outside the data region")
            if rec.codec not in _CODEC_NAMES:
                raise ArchiveCorrupt(f"unknown codec id {rec.codec}")
            if rec.enc not in (_ENC_NONE, _ENC_CBC, _ENC_CTR):
                raise ArchiveCorrupt(f"unknown enc mode {rec.enc}")
            blobs[rec.raw_sha] = rec
        entries: dict[str, _Entry] = {}
        for _ in range(n_entries):
            (name_len,) = _V2_NAME.unpack(take(_V2_NAME.size, "entry name"))
            try:
                name = take(name_len, "entry name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ArchiveCorrupt(
                    f"entry name is not valid UTF-8: {exc}"
                ) from exc
            kind, scheme_id, codec, eb, raw_size, content_sha, n_chunks = (
                _V2_ENTRY.unpack(take(_V2_ENTRY.size, "entry record"))
            )
            digests = take(n_chunks * _DIGEST, "entry digest list")
            if name in entries:
                raise ArchiveCorrupt(f"duplicate entry {name!r}")
            entries[name] = _Entry(
                name=name, kind=kind, scheme_id=scheme_id, codec=codec,
                error_bound=eb, raw_size=raw_size, content_sha=content_sha,
                chunks=[
                    digests[i : i + _DIGEST]
                    for i in range(0, len(digests), _DIGEST)
                ],
            )
        if buf.read(1):
            raise ArchiveCorrupt("trailing bytes after the index")
        self._blobs = blobs
        self._entries = entries

    def _index_bytes(self) -> bytes:
        parts = [_V2_COUNTS.pack(len(self._blobs), len(self._entries))]
        for rec in self._blobs.values():
            parts.append(_V2_BLOB.pack(
                rec.raw_sha, rec.stored_sha, rec.offset, rec.stored_len,
                rec.raw_len, rec.refcount, rec.codec, rec.enc, rec.iv,
            ))
        for ent in self._entries.values():
            encoded = ent.name.encode("utf-8")
            parts.append(_V2_NAME.pack(len(encoded)))
            parts.append(encoded)
            parts.append(_V2_ENTRY.pack(
                ent.kind, ent.scheme_id, ent.codec, ent.error_bound,
                ent.raw_size, ent.content_sha, len(ent.chunks),
            ))
            parts.append(b"".join(ent.chunks))
        return b"".join(parts)

    def _flush(self, fh) -> None:
        """Write index + footer at ``self._data_end`` and truncate."""
        index = self._index_bytes()
        fh.seek(self._data_end)
        fh.write(index)
        fh.write(_V2_FOOT.pack(
            self._data_end, len(index), _sha(index), _MAGIC2
        ))
        fh.truncate()

    # -- sealing ------------------------------------------------------

    def _fresh_iv(self) -> bytes:
        if self._cipher_mode == "ctr":
            return crypto_rng.generate_nonce(self._rng)
        return crypto_rng.generate_iv(self._rng)

    def _seal(self, chunk: bytes, codec: int) -> tuple[_Blob, bytes]:
        payload = _encode(chunk, codec)
        if self._key is not None:
            iv = self._fresh_iv()
            enc = _ENC_BY_MODE[self._cipher_mode]
            payload = AES128(self._key).encrypt(
                payload, mode=self._cipher_mode, iv=iv
            ).ciphertext
        else:
            iv, enc = _ZERO_IV, _ENC_NONE
        rec = _Blob(
            raw_sha=_sha(chunk), stored_sha=_sha(payload), offset=0,
            stored_len=len(payload), raw_len=len(chunk), refcount=1,
            codec=codec, enc=enc, iv=iv,
        )
        return rec, payload

    def _unseal(self, stored: bytes, rec: _Blob) -> bytes:
        if _sha(stored) != rec.stored_sha:
            raise ArchiveCorrupt(
                f"stored blob {rec.raw_sha.hex()[:12]} digest mismatch"
            )
        if rec.enc != _ENC_NONE:
            if self._key is None:
                raise ValueError("archive blob is encrypted; key required")
            mode = "cbc" if rec.enc == _ENC_CBC else "ctr"
            # The 16s wire slot zero-pads CTR's 8-byte nonce.
            iv = rec.iv[:8] if rec.enc == _ENC_CTR else rec.iv
            stored = AES128(self._key).decrypt(stored, iv, mode=mode)
        chunk = _decode(stored, rec.codec)
        if len(chunk) != rec.raw_len or _sha(chunk) != rec.raw_sha:
            raise ArchiveCorrupt(
                f"blob {rec.raw_sha.hex()[:12]} plaintext digest mismatch"
            )
        return chunk

    # -- mutation -----------------------------------------------------

    def _add_entry(
        self, name: str, data: bytes, *, kind: int, scheme_id: int,
        codec: int, error_bound: float,
    ) -> None:
        encoded = name.encode("utf-8")
        if not 1 <= len(encoded) <= 65535:
            raise ValueError(f"bad entry name {name!r}")
        if name in self._entries:
            raise ValueError(f"archive already has an entry {name!r}")
        digests: list[bytes] = []
        fresh: list[tuple[_Blob, bytes]] = []
        pending: dict[bytes, _Blob] = {}
        for chunk in chunker.split(data, **self._chunk_kwargs):
            raw_sha = _sha(chunk)
            digests.append(raw_sha)
            known = self._blobs.get(raw_sha) or pending.get(raw_sha)
            if known is not None:
                known.refcount += 1
                trace.count("archive.chunks_deduped")
                continue
            rec, payload = self._seal(chunk, codec)
            pending[raw_sha] = rec
            fresh.append((rec, payload))
            trace.count("archive.chunks_added")
        with open(self._path, "r+b") as fh:
            # Append-only data region: new blobs overwrite the dead
            # index, then a fresh index + footer go after them.
            fh.seek(self._data_end)
            for rec, payload in fresh:
                rec.offset = self._data_end
                fh.write(payload)
                self._data_end += rec.stored_len
                self._blobs[rec.raw_sha] = rec
            self._entries[name] = _Entry(
                name=name, kind=kind, scheme_id=scheme_id, codec=codec,
                error_bound=error_bound, raw_size=len(data),
                content_sha=_sha(data), chunks=digests,
            )
            self._flush(fh)

    def add_bytes(
        self, name: str, data: bytes, *, codec: str = "zlib"
    ) -> None:
        """Add an opaque byte entry, chunked, coded, and sealed.

        With a key, blobs are encrypted after the codec pass
        (Cmpr-Encr ordering); without one they are stored coded but
        plain, and the entry's scheme records ``none``.
        """
        if codec not in CODECS:
            raise ValueError(
                f"unknown codec {codec!r}; one of {sorted(CODECS)}"
            )
        scheme = "cmpr_encr" if self._key is not None else "none"
        self._add_entry(
            name, data, kind=_KIND_RAW,
            scheme_id=get_scheme(scheme).scheme_id,
            codec=CODECS[codec], error_bound=0.0,
        )

    def add_field(
        self,
        name: str,
        data: np.ndarray,
        *,
        scheme: str = "encr_huffman",
        error_bound: float = 1e-3,
        tracer: trace.Tracer | None = None,
    ) -> None:
        """Add a float field as a SECZ container entry.

        The container carries its own scheme protection, so its chunks
        are stored uncoded and unencrypted (``codec=store``, plain) —
        double-sealing would only hide the dedup opportunity.
        """
        if self._key is None and get_scheme(scheme).requires_key:
            raise ValueError(f"scheme {scheme!r} needs an archive key")
        sc = SecureCompressor(
            scheme, error_bound, key=self._key,
            cipher_mode=self._cipher_mode, random_state=self._rng,
        )
        container = sc.compress(data, tracer=tracer).container
        self._add_entry(
            name, container, kind=_KIND_FIELD,
            scheme_id=get_scheme(scheme).scheme_id,
            codec=CODECS["store"], error_bound=error_bound,
        )

    def remove(self, name: str) -> None:
        """Drop an entry; its blobs stay until :meth:`gc` runs."""
        ent = self._entries.pop(self._require(name).name)
        for digest in ent.chunks:
            rec = self._blobs.get(digest)
            if rec is not None and rec.refcount > 0:
                rec.refcount -= 1
        with open(self._path, "r+b") as fh:
            self._flush(fh)

    def gc(self) -> int:
        """Compact away refcount-zero blobs; returns how many died."""
        dead = [d for d, rec in self._blobs.items() if rec.refcount == 0]
        if not dead:
            return 0
        with open(self._path, "rb") as fh:
            keep: list[tuple[bytes, bytes]] = []
            for digest, rec in self._blobs.items():
                if rec.refcount == 0:
                    continue
                fh.seek(rec.offset)
                keep.append((digest, fh.read(rec.stored_len)))
        for digest in dead:
            del self._blobs[digest]
        offset = _V2_HEAD.size
        with open(self._path, "r+b") as fh:
            fh.seek(offset)
            for digest, stored in keep:
                self._blobs[digest].offset = offset
                fh.write(stored)
                offset += len(stored)
            self._data_end = offset
            self._flush(fh)
        trace.count("archive.blobs_gced", len(dead))
        return len(dead)

    # -- reads --------------------------------------------------------

    def _require(self, name: str) -> _Entry:
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"archive has no entry {name!r}; "
                f"entries: {sorted(self._entries)}"
            ) from None

    def _read_blob(self, fh, digest: bytes) -> bytes:
        rec = self._blobs.get(digest)
        if rec is None:
            raise ArchiveCorrupt(
                f"dangling chunk digest {digest.hex()[:12]}"
            )
        fh.seek(rec.offset)
        stored = fh.read(rec.stored_len)
        if len(stored) != rec.stored_len:
            raise ArchiveCorrupt("blob extends past end of data region")
        return self._unseal(stored, rec)

    def extract_bytes(self, name: str) -> bytes:
        """Reassemble a raw entry, failing closed on any mismatch."""
        ent = self._require(name)
        if ent.kind != _KIND_RAW:
            raise ValueError(
                f"entry {name!r} is a field; use extract_field"
            )
        return self._assemble(ent)

    def extract_field(self, name: str) -> np.ndarray:
        """Reassemble and decompress a field entry."""
        ent = self._require(name)
        if ent.kind != _KIND_FIELD:
            raise ValueError(
                f"entry {name!r} is raw bytes; use extract_bytes"
            )
        container = self._assemble(ent)
        sc = SecureCompressor(
            get_scheme(ent.scheme_id).name, ent.error_bound,
            key=self._key, cipher_mode=self._cipher_mode,
        )
        return sc.decompress(container)

    def _assemble(self, ent: _Entry) -> bytes:
        with open(self._path, "rb") as fh:
            parts = [self._read_blob(fh, d) for d in ent.chunks]
        data = b"".join(parts)
        if len(data) != ent.raw_size or _sha(data) != ent.content_sha:
            raise ArchiveCorrupt(
                f"entry {ent.name!r} content digest mismatch"
            )
        return data

    # -- audit --------------------------------------------------------

    def names(self) -> list[str]:
        """Entry names, insertion-ordered."""
        return list(self._entries)

    def entries(self) -> list[dict]:
        """Metadata rows for every entry (for ``secz archive list``)."""
        rows = []
        for ent in self._entries.values():
            stored = sum(
                self._blobs[d].stored_len
                for d in set(ent.chunks) if d in self._blobs
            )
            rows.append({
                "name": ent.name,
                "kind": "field" if ent.kind == _KIND_FIELD else "raw",
                "scheme": get_scheme(ent.scheme_id).name,
                "codec": _CODEC_NAMES.get(ent.codec, "?"),
                "error_bound": ent.error_bound,
                "raw_size": ent.raw_size,
                "stored_size": stored,
                "n_chunks": len(ent.chunks),
            })
        return rows

    def stats(self) -> dict:
        """Store-wide dedup accounting."""
        raw_total = sum(e.raw_size for e in self._entries.values())
        referenced = sum(
            self._blobs[d].raw_len
            for e in self._entries.values() for d in e.chunks
            if d in self._blobs
        )
        stored = sum(r.stored_len for r in self._blobs.values())
        return {
            "entries": len(self._entries),
            "blobs": len(self._blobs),
            "raw_bytes": raw_total,
            "referenced_bytes": referenced,
            "stored_bytes": stored,
            "dedup_ratio": referenced / stored if stored else 0.0,
        }

    def verify(self, *, deep: bool = False) -> list[str]:
        """Audit the archive; returns a list of problems (empty = ok).

        Keyless checks: blob extents, stored-byte digests, refcount
        agreement with the entries, dangling digests.  With ``deep``
        (and a key when blobs are sealed), every chunk is unsealed and
        its plaintext digest plus each entry's content digest checked.
        """
        problems: list[str] = []
        counted: dict[bytes, int] = {d: 0 for d in self._blobs}
        with open(self._path, "rb") as fh:
            for digest, rec in self._blobs.items():
                fh.seek(rec.offset)
                stored = fh.read(rec.stored_len)
                if len(stored) != rec.stored_len:
                    problems.append(
                        f"blob {digest.hex()[:12]}: extent past data end"
                    )
                    continue
                if _sha(stored) != rec.stored_sha:
                    problems.append(
                        f"blob {digest.hex()[:12]}: stored bytes corrupt"
                    )
            for ent in self._entries.values():
                for digest in ent.chunks:
                    if digest in counted:
                        counted[digest] += 1
                    else:
                        problems.append(
                            f"entry {ent.name!r}: dangling chunk digest "
                            f"{digest.hex()[:12]}"
                        )
            for digest, rec in self._blobs.items():
                if rec.refcount != counted[digest]:
                    problems.append(
                        f"blob {digest.hex()[:12]}: refcount says "
                        f"{rec.refcount}, entries reference "
                        f"{counted[digest]}"
                    )
            if deep:
                for ent in self._entries.values():
                    try:
                        self._assemble(ent)
                    except (ValueError, ArchiveCorrupt) as exc:
                        problems.append(f"entry {ent.name!r}: {exc}")
        return problems
