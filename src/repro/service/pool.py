"""Shared compressor pool and the ``compress_many`` batcher.

A one-shot ``secz compress`` pays its setup every call: AES key
expansion, predictor selection, and a cold canonical-codec cache.  The
daemon amortizes all three.  The pool pre-builds one
:class:`~repro.core.pipeline.SecureCompressor` per executor thread and
(scheme, eb) configuration — the AES-128 key schedule is expanded once
per thread and reused for every job — and every compression runs in
the one process whose ``huffman.codec_for`` cache stays warm, so
statistically similar fields reuse each other's canonical Huffman
codecs instead of rebuilding them.  In CTR mode each job's keystream
prefetcher is started by the compressor itself before the SZ stages
run (:mod:`repro.crypto.pipelined`), exactly as in one-shot calls, but
against an already-expanded schedule.

:meth:`CompressorPool.compress_many` is the batcher: a worker hands it
every compatible job it managed to drain from the queue and the batch
compresses back to back on one warm compressor.  Each field whose
canonical codec is served from the process-wide cache counts one
``service.batch_reuse_hits`` — the daemon's measurable win over
one-shot calls.  Fields whose leading axis is long enough optionally
take the :class:`~repro.parallel.chunked.ChunkedSecureCompressor`
slab-parallel path and come back as SECM multi-chunk blobs (the
container magic tells clients which decoder to use).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core import trace
from repro.core.pipeline import SecureCompressor
from repro.parallel.chunked import ChunkedSecureCompressor
from repro.sz import huffman

__all__ = ["CompressorPool", "BatchItem", "BatchResult"]


class BatchItem:
    """One job's compression input, as the worker hands it over."""

    __slots__ = ("job_id", "field", "scheme", "eb")

    def __init__(self, job_id: bytes, field: np.ndarray, scheme: str,
                 eb: float) -> None:
        self.job_id = job_id
        self.field = field
        self.scheme = scheme
        self.eb = eb


class BatchResult:
    """One job's compression output plus its observability summary."""

    __slots__ = ("job_id", "container", "seconds", "overlap_ms", "wait_ms",
                 "codec_reused")

    def __init__(self, job_id: bytes, container: bytes, seconds: float,
                 overlap_ms: float, wait_ms: float,
                 codec_reused: bool) -> None:
        self.job_id = job_id
        self.container = container
        self.seconds = seconds
        self.overlap_ms = overlap_ms
        self.wait_ms = wait_ms
        self.codec_reused = codec_reused


class CompressorPool:
    """Thread-local :class:`SecureCompressor` instances, shared policy.

    Parameters mirror the compressor's; ``seed`` builds *one* shared
    compressor with a seeded IV stream (deterministic containers for
    reproducible experiments — callers must then serialize jobs, which
    ``secz serve --workers 1`` does).  ``chunk_axis_min > 0`` routes
    fields whose leading axis reaches it through the slab-parallel
    chunked compressor.
    """

    def __init__(
        self,
        *,
        scheme: str = "encr_huffman",
        error_bound: float = 1e-3,
        key: bytes | None = None,
        cipher_mode: str = "cbc",
        seed: int | None = None,
        allow_nonce_reuse: bool = False,
        chunk_axis_min: int = 0,
        n_chunks: int = 4,
    ) -> None:
        self.scheme = scheme
        self.error_bound = float(error_bound)
        self.key = key
        self.cipher_mode = cipher_mode
        self.seed = seed
        self.allow_nonce_reuse = allow_nonce_reuse
        self.chunk_axis_min = int(chunk_axis_min)
        self.n_chunks = n_chunks
        self._tls = threading.local()
        self._shared: dict[tuple[str, float], SecureCompressor] = {}
        self._stats_lock = threading.Lock()
        #: Aggregates STAT reads: jobs compressed, keystream overlap.
        self.jobs_compressed = 0
        self.keystream_overlap_ms = 0.0
        self.keystream_wait_ms = 0.0
        if seed is not None:
            # One shared seeded compressor per config: the IV stream is
            # a sequence, so it must not fork across threads.
            self._seed_rng = np.random.default_rng(seed)

    # -- compressor construction ---------------------------------------

    def _build(self, scheme: str, eb: float) -> SecureCompressor:
        return SecureCompressor(
            scheme=scheme,
            error_bound=eb,
            key=self.key,
            cipher_mode=self.cipher_mode,
            random_state=self._seed_rng if self.seed is not None else None,
            allow_nonce_reuse=self.allow_nonce_reuse,
        )

    def compressor_for(self, scheme: str, eb: float) -> SecureCompressor:
        """The calling thread's warm compressor for ``(scheme, eb)``."""
        key = (scheme, float(eb))
        if self.seed is not None:
            # Seeded compressors are shared (single IV stream).
            if key not in self._shared:
                self._shared[key] = self._build(scheme, eb)
            return self._shared[key]
        cache = getattr(self._tls, "compressors", None)
        if cache is None:
            cache = self._tls.compressors = {}
        if key not in cache:
            cache[key] = self._build(scheme, eb)
        return cache[key]

    def resolve(self, scheme: str | None, eb: float) -> tuple[str, float]:
        """Apply server policy: fall back to the configured defaults."""
        return (scheme or self.scheme, eb if eb > 0.0 else self.error_bound)

    # -- the batcher ---------------------------------------------------

    def compress_many(self, items: list[BatchItem]) -> list[BatchResult]:
        """Compress a drained batch back to back on warm state.

        All items must share one ``(scheme, eb)`` — the worker groups
        before calling.  Runs on an executor thread; every field is
        traced so the service can export per-request spans and
        keystream overlap through STAT.
        """
        if not items:
            return []
        results = []
        sc = self.compressor_for(items[0].scheme, items[0].eb)
        for item in items:
            hits_before = trace.counters_snapshot().get(
                "huffman.codec_cache_hits", 0
            )
            tr = trace.Tracer()
            with tr.span("service.job", bytes_in=item.field.nbytes,
                         job_id=item.job_id.hex()):
                if (
                    self.chunk_axis_min > 0
                    and item.field.ndim >= 2
                    and item.field.shape[0] >= self.chunk_axis_min
                ):
                    container = self._compress_chunked(item, tr)
                else:
                    container = sc.compress(item.field, tracer=tr).container
            doc = tr.export()
            root = doc["roots"][0]
            overlap, wait = _keystream_attrs(root)
            reused = trace.counters_snapshot().get(
                "huffman.codec_cache_hits", 0
            ) > hits_before
            if reused:
                trace.count("service.batch_reuse_hits")
            with self._stats_lock:
                self.jobs_compressed += 1
                self.keystream_overlap_ms += overlap
                self.keystream_wait_ms += wait
            results.append(BatchResult(
                job_id=item.job_id,
                container=container,
                seconds=root["seconds"],
                overlap_ms=overlap,
                wait_ms=wait,
                codec_reused=reused,
            ))
        return results

    def _compress_chunked(self, item: BatchItem,
                          tr: trace.Tracer) -> bytes:
        chunked = ChunkedSecureCompressor(
            scheme=item.scheme,
            error_bound=item.eb,
            key=self.key,
            cipher_mode=self.cipher_mode,
            n_chunks=min(self.n_chunks, item.field.shape[0]),
            n_workers=1,
            allow_nonce_reuse=self.allow_nonce_reuse,
        )
        return chunked.compress(item.field, tracer=tr)

    # -- observability -------------------------------------------------

    def stats(self) -> dict:
        """Aggregate pool statistics for the STAT verb."""
        with self._stats_lock:
            return {
                "jobs_compressed": self.jobs_compressed,
                "keystream_overlap_ms": round(self.keystream_overlap_ms, 3),
                "keystream_wait_ms": round(self.keystream_wait_ms, 3),
            }

    @staticmethod
    def codec_cache_stats() -> dict:
        """The process-wide canonical-codec cache, hit rate included."""
        counters = trace.counters_snapshot()
        hits = counters.get("huffman.codec_cache_hits", 0)
        misses = counters.get("huffman.codec_cache_misses", 0)
        total = hits + misses
        stats = huffman.codec_cache_stats()
        stats.update({
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / total, 4) if total else 0.0,
        })
        return stats


def _keystream_attrs(root: dict) -> tuple[float, float]:
    """Pull keystream overlap/wait off the compress span, searching the
    ``service.job`` subtree (chunked slabs keep per-slab attrs)."""
    overlap = wait = 0.0
    stack = [root]
    while stack:
        span = stack.pop()
        overlap += float(span["attrs"].get("keystream_overlap_ms", 0.0))
        wait += float(span["attrs"].get("keystream_wait_ms", 0.0))
        stack.extend(span["children"])
    return overlap, wait
