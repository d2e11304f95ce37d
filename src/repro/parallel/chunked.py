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
  slab makes exactly the keystream its own ciphertext needs.
* Seeded runs (``base_seed``) derive slab nonces deterministically from
  ``base_seed + slab_index``; in CTR mode that is a keystream-reuse
  hazard across *runs* (same seed + same key → same nonces), so the
  constructor refuses it (:func:`repro.crypto.rng.refuse_seeded_ctr`).
* The outer framing is deliberately trivial: magic, chunk count, chunk
  lengths, then the containers back to back.  It is written and read
  by :mod:`repro.parallel.filestream`, through an in-memory buffer.
"""

from __future__ import annotations

import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core import trace
from repro.core.pipeline import SecureCompressor
from repro.crypto import rng as crypto_rng
from repro.parallel.filestream import read_secm, write_secm

__all__ = ["ChunkedSecureCompressor"]


@dataclass(frozen=True)
class _Config:
    """Picklable constructor arguments for worker-side compressors."""

    scheme: str
    error_bound: float
    key: bytes | None = field(repr=False)
    cipher_mode: str
    authenticate: bool = False

    def build(self, seed: int | None = None) -> SecureCompressor:
        rng = np.random.default_rng(seed) if seed is not None else None
        return SecureCompressor(
            scheme=self.scheme,
            error_bound=self.error_bound,
            key=self.key,
            cipher_mode=self.cipher_mode,
            authenticate=self.authenticate,
            random_state=rng,
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
    scheme, error_bound, key, cipher_mode, authenticate:
        Same meaning as :class:`repro.core.SecureCompressor`.
    n_chunks:
        Number of axis-0 slabs (must not exceed the axis length).
    n_workers:
        Worker processes; 1 runs everything in-process (useful for
        tests and for measuring the parallel overhead itself).
    base_seed:
        When set, slab IVs derive from ``base_seed + slab_index`` so
        runs are reproducible; production leaves it None (OS entropy).
        Refused with ``cipher_mode="ctr"``, whose nonces it would make
        deterministic across runs.
    """

    def __init__(
        self,
        scheme: str = "encr_huffman",
        error_bound: float = 1e-3,
        *,
        key: bytes | None = None,
        cipher_mode: str = "cbc",
        authenticate: bool = False,
        n_chunks: int = 4,
        n_workers: int = 4,
        base_seed: int | None = None,
    ) -> None:
        if n_chunks < 1:
            raise ValueError("n_chunks must be positive")
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        # Refuse here rather than in the workers: one clear error in
        # the construction stack instead of N pickled ones.
        crypto_rng.refuse_seeded_ctr(cipher_mode, base_seed)
        self._config = _Config(
            scheme=scheme,
            error_bound=float(error_bound),
            key=key,
            cipher_mode=cipher_mode,
            authenticate=authenticate,
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
            buf = io.BytesIO()
            write_secm(buf, len(containers), containers)
            blob = buf.getvalue()
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
        containers = list(read_secm(io.BytesIO(blob)))
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
