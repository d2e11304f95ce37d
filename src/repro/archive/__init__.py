"""Secure archives: the content-addressed SECB v2 store.

:class:`ArchiveStore` keeps raw byte entries and SECZ field containers
in one file: content-defined chunking, SHA-256 addressed store-once
blobs with refcounts, per-entry scheme/codec/error-bound metadata, and
incremental append.  ``secz archive`` drives it from the CLI.  Flat
SECB v1 bundles are read only, by :meth:`ArchiveStore.import_secb_v1`,
which turns their containers into field entries.

Examples
--------
>>> import os, tempfile
>>> from repro.archive import ArchiveStore
>>> path = os.path.join(tempfile.mkdtemp(), "runs.secb")
>>> store = ArchiveStore.create(path, key=bytes(range(16)))
>>> store.add_bytes("ckpt", b"weights " * 512, codec="lz77h")
>>> store.add_bytes("ckpt-copy", b"weights " * 512)  # stored once
>>> store.stats()["dedup_ratio"] > 1.5
True
>>> store.extract_bytes("ckpt-copy")[:8]
b'weights '
>>> store.verify(deep=True)
[]
"""

from repro.archive.store import ArchiveStore, ArchiveCorrupt

__all__ = ["ArchiveStore", "ArchiveCorrupt"]
