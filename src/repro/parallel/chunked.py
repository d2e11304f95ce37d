"""Slab-parallel secure compression.

Implementation notes
--------------------
* Workers are plain ``ProcessPoolExecutor`` processes; the work unit is
  one axis-0 slab.  The module-level :func:`_compress_slab` /
  :func:`_decompress_slab` functions keep the payload picklable (the
  guides' mpi4py examples use the same "ship arrays, not objects"
  discipline — a slab is a contiguous buffer, cheap to serialize).
* Every slab is an independent SECZ container with a fresh IV/nonce —
  CBC IV reuse across ranks would leak equal-prefix information, CTR
  nonce reuse would leak the slabs' XOR outright.  In CTR mode each
  worker additionally runs its own keystream prefetcher
  (:mod:`repro.crypto.pipelined`), so per-slab keystream generation
  overlaps that slab's SZ stages instead of serializing after them.
* Seeded runs (``base_seed``) derive slab nonces deterministically from
  ``base_seed + slab_index``; in CTR mode that is a keystream-reuse
  hazard across *runs* (same seed + same key → same nonces), so the
  constructor refuses it unless ``allow_nonce_reuse=True`` is passed
  explicitly (see DESIGN.md).
* The outer framing is deliberately trivial: magic, chunk count, chunk
  lengths, then the containers back to back.
"""

from __future__ import annotations

import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core import trace
from repro.core.pipeline import SecureCompressor

__all__ = ["ChunkedSecureCompressor"]

_MAGIC = b"SECM"
_HEADER = struct.Struct("<4sI")


@dataclass(frozen=True)
class _Config:
    """Picklable constructor arguments for worker-side compressors."""

    scheme: str
    error_bound: float
    key: bytes | None
    cipher_mode: str
    predictor: str
    zlib_level: int
    authenticate: bool = False
    encode_workers: int = 1
    depth_limit: int | None = None
    allow_nonce_reuse: bool = False

    def build(self, seed: int | None = None) -> SecureCompressor:
        rng = np.random.default_rng(seed) if seed is not None else None
        return SecureCompressor(
            scheme=self.scheme,
            error_bound=self.error_bound,
            key=self.key,
            cipher_mode=self.cipher_mode,
            predictor=self.predictor,
            zlib_level=self.zlib_level,
            authenticate=self.authenticate,
            encode_workers=self.encode_workers,
            depth_limit=self.depth_limit,
            random_state=rng,
            allow_nonce_reuse=self.allow_nonce_reuse,
        )


def _compress_slab(
    args: tuple[_Config, bytes, tuple[int, ...], str, int, bool]
) -> tuple[bytes, dict | None]:
    config, raw, shape, dtype, seed, want_trace = args
    slab = np.frombuffer(raw, dtype=dtype).reshape(shape)
    tr = trace.Tracer() if want_trace else None
    container = config.build(seed).compress(slab, tracer=tr).container
    return container, (tr.export() if tr is not None else None)


def _decompress_slab(
    args: tuple[_Config, bytes, bool]
) -> tuple[bytes, tuple[int, ...], str, dict | None]:
    config, container, want_trace = args
    tr = trace.Tracer() if want_trace else None
    out = config.build().decompress(container, tracer=tr)
    return (
        np.ascontiguousarray(out).tobytes(),
        out.shape,
        out.dtype.str,
        tr.export() if tr is not None else None,
    )


class ChunkedSecureCompressor:
    """Compress axis-0 slabs of a field in parallel worker processes.

    Parameters
    ----------
    scheme, error_bound, key, cipher_mode, predictor, zlib_level:
        Same meaning as :class:`repro.core.SecureCompressor`.
    n_chunks:
        Number of axis-0 slabs (must not exceed the axis length).
    n_workers:
        Worker processes; 1 runs everything in-process (useful for
        tests and for measuring the parallel overhead itself).
    base_seed:
        When set, slab IVs derive from ``base_seed + slab_index`` so
        runs are reproducible; production leaves it None (OS entropy).
        With ``cipher_mode="ctr"`` this makes nonces deterministic
        across runs and therefore requires ``allow_nonce_reuse=True``.
    allow_nonce_reuse:
        Explicit opt-in for seeded CTR runs (reproducible experiments
        on non-sensitive data only); forwarded to every slab's
        :class:`SecureCompressor`.  See DESIGN.md.
    encode_workers:
        Per-worker thread-pool width for packing v3 Huffman lanes
        (forwarded to each slab's :class:`SecureCompressor`).  The
        output bytes are identical for any value, so process- and
        thread-level parallelism compose freely.
    depth_limit:
        Optional per-slab Huffman code-depth cap (forwarded to each
        slab's :class:`SecureCompressor`); flagged frames decode on
        the miss-free kernel.
    """

    def __init__(
        self,
        scheme: str = "encr_huffman",
        error_bound: float = 1e-3,
        *,
        key: bytes | None = None,
        cipher_mode: str = "cbc",
        predictor: str = "auto",
        zlib_level: int = 6,
        authenticate: bool = False,
        n_chunks: int = 4,
        n_workers: int = 4,
        base_seed: int | None = None,
        encode_workers: int = 1,
        depth_limit: int | None = None,
        allow_nonce_reuse: bool = False,
    ) -> None:
        if n_chunks < 1:
            raise ValueError("n_chunks must be positive")
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        if (
            cipher_mode == "ctr"
            and base_seed is not None
            and not allow_nonce_reuse
        ):
            # Fail here rather than in the workers: one clear error in
            # the construction stack instead of N pickled ones.
            raise ValueError(
                "cipher_mode='ctr' with base_seed derives deterministic "
                "per-slab nonces: re-running with the same seed and key "
                "would reuse (key, nonce) pairs and leak slab XORs. Pass "
                "allow_nonce_reuse=True only for reproducible experiments "
                "on non-sensitive data (DESIGN.md), or drop base_seed."
            )
        self._config = _Config(
            scheme=scheme,
            error_bound=float(error_bound),
            key=key,
            cipher_mode=cipher_mode,
            predictor=predictor,
            zlib_level=zlib_level,
            authenticate=authenticate,
            encode_workers=encode_workers,
            depth_limit=depth_limit,
            allow_nonce_reuse=allow_nonce_reuse,
        )
        self.n_chunks = n_chunks
        self.n_workers = n_workers
        self.base_seed = base_seed

    def _slabs(self, data: np.ndarray) -> list[np.ndarray]:
        if data.shape[0] < self.n_chunks:
            raise ValueError(
                f"cannot split axis of length {data.shape[0]} into "
                f"{self.n_chunks} chunks"
            )
        return np.array_split(data, self.n_chunks, axis=0)

    def compress(
        self, data: np.ndarray, *, tracer: trace.Tracer | None = None
    ) -> bytes:
        """Compress ``data`` slab-parallel into a SECM multi-container.

        With an enabled ``tracer``, each worker records its own span
        tree; the parent grafts every slab's spans under one
        ``chunked.compress`` span (thread/process-safe: workers trace
        into private tracers, the graft happens here) and folds
        worker-process counters into this process's totals.
        """
        tr = tracer or trace.NULL_TRACER
        data = np.ascontiguousarray(data)
        slabs = self._slabs(data)
        jobs = [
            (
                self._config,
                slab.tobytes(),
                slab.shape,
                slab.dtype.str,
                (self.base_seed + i) if self.base_seed is not None else None,
                tr.enabled,
            )
            for i, slab in enumerate(slabs)
        ]
        with tr.span("chunked.compress", bytes_in=data.nbytes,
                     n_chunks=self.n_chunks,
                     n_workers=self.n_workers) as root:
            pooled = self.n_workers > 1
            if pooled:
                with ProcessPoolExecutor(max_workers=self.n_workers) as pool:
                    results = list(pool.map(_compress_slab, jobs))
            else:
                results = [_compress_slab(job) for job in jobs]
            containers = [container for container, _ in results]
            self._graft_slab_traces(
                tr, (doc for _, doc in results), pooled
            )
            head = _HEADER.pack(_MAGIC, len(containers))
            lengths = struct.pack(
                f"<{len(containers)}Q", *map(len, containers)
            )
            blob = head + lengths + b"".join(containers)
            root.bytes_out = len(blob)
        return blob

    @staticmethod
    def _graft_slab_traces(tr: trace.Tracer, docs, pooled: bool) -> None:
        """Attach each worker's exported spans as ``slab`` children.

        Worker-process counter deltas only merge when a pool actually
        ran the slab — the in-process path already counted into this
        process's globals, and merging again would double-count.
        """
        if not tr.enabled:
            return
        for i, doc in enumerate(docs):
            if doc is None:
                continue
            wrapper = trace.Span(name="slab", attrs={"index": i})
            for root in doc["roots"]:
                child = trace.span_from_dict(root)
                wrapper.children.append(child)
                wrapper.seconds += child.seconds
            tr.attach(wrapper)
            if pooled:
                trace.merge_counters(doc["counters"])

    def decompress(
        self, blob: bytes, *, tracer: trace.Tracer | None = None
    ) -> np.ndarray:
        """Invert :meth:`compress`, reassembling the slabs in order."""
        tr = tracer or trace.NULL_TRACER
        if len(blob) < _HEADER.size:
            raise ValueError("multi-chunk blob shorter than its header")
        magic, n_chunks = _HEADER.unpack_from(blob)
        if magic != _MAGIC:
            raise ValueError("bad magic; not a SECM multi-chunk blob")
        offset = _HEADER.size
        if len(blob) < offset + 8 * n_chunks:
            raise ValueError("truncated multi-chunk length table")
        lengths = struct.unpack_from(f"<{n_chunks}Q", blob, offset)
        offset += 8 * n_chunks
        containers = []
        for length in lengths:
            if offset + length > len(blob):
                raise ValueError("truncated multi-chunk payload")
            containers.append(blob[offset : offset + length])
            offset += length
        if offset != len(blob):
            raise ValueError("trailing bytes after multi-chunk payload")
        jobs = [(self._config, c, tr.enabled) for c in containers]
        with tr.span("chunked.decompress", bytes_in=len(blob),
                     n_chunks=len(containers),
                     n_workers=self.n_workers) as root:
            pooled = self.n_workers > 1
            if pooled:
                with ProcessPoolExecutor(max_workers=self.n_workers) as pool:
                    raw = list(pool.map(_decompress_slab, jobs))
            else:
                raw = [_decompress_slab(job) for job in jobs]
            self._graft_slab_traces(
                tr, (doc for _, _, _, doc in raw), pooled
            )
            slabs = [
                np.frombuffer(chunk, dtype=dtype).reshape(shape)
                for chunk, shape, dtype, _ in raw
            ]
            out = np.concatenate(slabs, axis=0)
            root.bytes_out = out.nbytes
        return out
