"""Shared compressor pool: one job, one compress, on warm state.

What a warm daemon saves over a one-shot ``secz compress`` is the
process: interpreter start-up and the package imports, paid once.  The
jobs themselves share little.  The pool holds one
:class:`~repro.core.protect.Sealer` per scheme — the AES-128 key
schedule is expanded once per scheme and shared by every thread and
job, though an expansion takes only tens of microseconds — and one
:class:`~repro.core.pipeline.SecureCompressor` per (scheme, eb)
configuration built on it.  Every compress selects its predictor and
builds its canonical Huffman code afresh, exactly as a one-shot call
does.  A CTR job makes its keystream when its scheme encrypts, against
the already-expanded schedule; no job starts a thread.

Sharing across executor threads is safe: the expanded ``AES128`` is
immutable, a CTR seal wraps it in a fresh one-shot view, an unseeded
IV comes from OS entropy, and a compress keeps its working state in
locals, not on the compressor.  A seeded pool's one IV stream is a sequence, so its
callers serialize jobs (``secz serve --workers 1``).

:meth:`CompressorPool.compress` runs one job on an executor thread.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.pipeline import SecureCompressor
from repro.core.protect import Sealer

__all__ = ["CompressorPool"]


class CompressorPool:
    """One :class:`SecureCompressor` per ``(scheme, eb)``, shared by
    every thread, on one :class:`Sealer` per scheme.

    Parameters mirror the compressor's; ``seed`` draws every IV from
    one seeded stream (deterministic containers for reproducible
    experiments — callers must then serialize jobs, which
    ``secz serve --workers 1`` does).  The default scheme's sealer is
    built here, so a bad default policy (scheme, key, cipher mode,
    seeded CTR) fails at construction rather than in every job.
    """

    def __init__(
        self,
        *,
        scheme: str = "encr_huffman",
        error_bound: float = 1e-3,
        key: bytes | None = None,
        cipher_mode: str = "cbc",
        seed: int | None = None,
    ) -> None:
        # One seeded IV stream for every sealer: it is a sequence, so
        # it must not fork.
        self._seed_rng = (
            np.random.default_rng(seed) if seed is not None else None
        )
        self.scheme = scheme
        self.error_bound = float(error_bound)
        self.key = key
        self.cipher_mode = cipher_mode
        self.seed = seed
        self._lock = threading.Lock()
        self._sealers = {scheme: self._sealer(scheme)}
        self._compressors: dict[tuple[str, float], SecureCompressor] = {}
        self._stats_lock = threading.Lock()
        #: Jobs compressed, for STAT.
        self.jobs_compressed = 0

    # -- compressor construction ---------------------------------------

    def _sealer(self, scheme: str) -> Sealer:
        return Sealer(scheme, key=self.key, cipher_mode=self.cipher_mode,
                      random_state=self._seed_rng)

    def compressor_for(self, scheme: str, eb: float) -> SecureCompressor:
        """The pool's warm compressor for ``(scheme, eb)``."""
        key = (scheme, float(eb))
        with self._lock:
            sc = self._compressors.get(key)
            if sc is None:
                if scheme not in self._sealers:
                    self._sealers[scheme] = self._sealer(scheme)
                sc = self._compressors[key] = SecureCompressor.from_sealer(
                    self._sealers[scheme], eb
                )
            return sc

    def resolve(self, scheme: str | None, eb: float) -> tuple[str, float]:
        """Apply server policy: fall back to the configured defaults."""
        return (scheme or self.scheme, eb if eb > 0.0 else self.error_bound)

    # -- one job -------------------------------------------------------

    def compress(self, field: np.ndarray, scheme: str, eb: float) -> bytes:
        """One job's container, from the warm compressor for
        ``(scheme, eb)``.  Runs on an executor thread."""
        container = self.compressor_for(scheme, eb).compress(field).container
        with self._stats_lock:
            self.jobs_compressed += 1
        return container

    # -- observability -------------------------------------------------

    def stats(self) -> dict:
        """Aggregate pool statistics for the STAT verb.

        No job waits on background keystream, so both ``keystream_*``
        keys are always 0.0; they stay in ``secp-stat/2`` for its
        readers (the benchmark's ``serve`` workload reads
        ``keystream_wait_ms``).
        """
        with self._stats_lock:
            return {
                "jobs_compressed": self.jobs_compressed,
                "keystream_overlap_ms": 0.0,
                "keystream_wait_ms": 0.0,
            }
