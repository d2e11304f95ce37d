"""Streaming file-to-file secure compression, and the SECM framing.

For fields too large to hold in memory (the paper's QI/T are 5.8 GB),
the compressor memory-maps the raw input, processes one axis-0 slab at
a time, and appends each slab's container to the output as it
completes.  :func:`write_secm` and :func:`read_secm` are the one
writer and reader of the SECM multi-chunk framing (FORMAT.md §9).
The chunk-length table is back-patched after the last slab, so
compression needs only one slab of working memory.

Both directions write to a sibling temp file and move it onto the
output path only once the last slab is written and synced, so a
failed run (a truncated SECM file, a wrong key, a full disk) leaves
no partial output and an existing file at the output path untouched.
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
from collections.abc import Iterable, Iterator
from typing import BinaryIO

import numpy as np

from repro.core.pipeline import SecureCompressor

__all__ = ["compress_file", "decompress_file", "write_secm", "read_secm"]

_MAGIC = b"SECM"
_HEADER = struct.Struct("<4sI")  # magic, chunk count


def write_secm(
    out: BinaryIO, n_chunks: int, containers: Iterable[bytes]
) -> None:
    """Frame ``n_chunks`` containers as SECM onto ``out``.

    Each container is written as it arrives; the length table is
    back-patched after the last one, so ``out`` must be seekable.
    """
    out.write(_HEADER.pack(_MAGIC, n_chunks))
    table_pos = out.tell()
    out.write(bytes(8 * n_chunks))
    lengths = []
    for container in containers:
        lengths.append(len(container))
        out.write(container)
    out.seek(table_pos)
    out.write(struct.pack(f"<{n_chunks}Q", *lengths))


def read_secm(inp: BinaryIO) -> Iterator[bytes]:
    """Yield the containers of the SECM stream from ``inp`` on, in order.

    ``inp`` must be seekable: every length is checked against the bytes
    left before anything is read.  Bad magic, a truncated header, table
    or payload, and bytes after the last container raise ``ValueError``.
    """
    start = inp.tell()
    left = inp.seek(0, io.SEEK_END) - start
    inp.seek(start)

    def take(n: int, what: str) -> bytes:
        nonlocal left
        if n > left:
            raise ValueError(f"truncated SECM {what}")
        left -= n
        return inp.read(n)

    magic, n_chunks = _HEADER.unpack(take(_HEADER.size, "header"))
    if magic != _MAGIC:
        raise ValueError("bad magic; not a SECM stream")
    table = take(8 * n_chunks, "length table")
    for length in struct.unpack(f"<{n_chunks}Q", table):
        yield take(length, "payload")
    if left:
        raise ValueError("trailing bytes after SECM payload")


@contextlib.contextmanager
def _replace_on_success(out_path: str | os.PathLike) -> Iterator[BinaryIO]:
    """A new file beside ``out_path`` to write; flushed, synced and
    moved onto ``out_path`` if the block completes, removed if it
    raises."""
    tmp = f"{os.fspath(out_path)}.{os.urandom(4).hex()}.tmp"
    out = open(tmp, "xb")
    try:
        with out:
            yield out
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, out_path)
    except BaseException:
        os.unlink(tmp)
        raise


def compress_file(
    in_path: str | os.PathLike,
    out_path: str | os.PathLike,
    shape: tuple[int, ...],
    *,
    dtype: np.dtype | str = np.float32,
    slab_rows: int = 16,
    **compressor_kwargs,
) -> int:
    """Compress a raw binary field file slab-by-slab.

    Parameters
    ----------
    in_path:
        Headerless C-order binary field (SDRBench layout).
    out_path:
        Destination SECM file.
    shape, dtype:
        The field's dimensions and element type.
    slab_rows:
        Axis-0 rows per slab (working-set control).
    compressor_kwargs:
        Forwarded to :class:`~repro.core.pipeline.SecureCompressor`
        (scheme, error_bound, key, ...).

    Returns the number of slabs written.
    """
    if slab_rows < 1:
        raise ValueError("slab_rows must be positive")
    dtype = np.dtype(dtype)
    expected = int(np.prod(shape)) * dtype.itemsize
    if os.path.getsize(in_path) != expected:
        raise ValueError(
            f"{in_path}: size does not match shape {shape} / dtype {dtype}"
        )
    field = np.memmap(in_path, dtype=dtype, mode="r", shape=tuple(shape))
    sc = SecureCompressor(**compressor_kwargs)
    n_slabs = -(-shape[0] // slab_rows)
    containers = (
        sc.compress(np.ascontiguousarray(
            field[s * slab_rows : (s + 1) * slab_rows]
        )).container
        for s in range(n_slabs)
    )
    with _replace_on_success(out_path) as out:
        write_secm(out, n_slabs, containers)
    return n_slabs


def decompress_file(
    in_path: str | os.PathLike,
    out_path: str | os.PathLike,
    **compressor_kwargs,
) -> tuple[int, ...]:
    """Invert :func:`compress_file`, streaming slabs to ``out_path``,
    which appears only if every slab decodes.

    Returns the shape of the restored field (axis 0 is the slab
    concatenation; trailing axes come from the first slab).
    """
    sc = SecureCompressor(**compressor_kwargs)
    rows = 0
    tail_shape: tuple[int, ...] | None = None
    with open(in_path, "rb") as inp, _replace_on_success(out_path) as out:
        for container in read_secm(inp):
            slab = sc.decompress(container)
            if tail_shape is None:
                tail_shape = slab.shape[1:]
            elif slab.shape[1:] != tail_shape:
                raise ValueError("inconsistent slab shapes in SECM file")
            rows += slab.shape[0]
            out.write(np.ascontiguousarray(slab).tobytes())
    return (rows, *(tail_shape or ()))
