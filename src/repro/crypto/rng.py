"""Initialization-vector generation.

Algorithm 1 "Generate random Initial Vector IV".  Production use pulls
OS entropy; experiments pass a seeded generator so that every table in
EXPERIMENTS.md is bit-reproducible.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["generate_iv", "generate_nonce", "fresh_iv", "refuse_seeded_ctr"]


def generate_iv(rng: np.random.Generator | None = None) -> bytes:
    """Return a fresh 16-byte IV.

    Parameters
    ----------
    rng:
        Optional seeded NumPy generator for deterministic experiment
        runs.  When ``None`` (the default), uses ``os.urandom``.
    """
    if rng is None:
        return os.urandom(16)
    return rng.integers(0, 256, size=16, dtype=np.uint8).tobytes()


def generate_nonce(rng: np.random.Generator | None = None) -> bytes:
    """Return a fresh 8-byte CTR nonce (see :func:`generate_iv`)."""
    if rng is None:
        return os.urandom(8)
    return rng.integers(0, 256, size=8, dtype=np.uint8).tobytes()


def fresh_iv(
    cipher_mode: str, rng: np.random.Generator | None = None
) -> bytes:
    """Return a fresh IV for ``cipher_mode``: an 8-byte nonce for
    ``"ctr"``, a 16-byte IV otherwise."""
    if cipher_mode == "ctr":
        return generate_nonce(rng)
    return generate_iv(rng)


def refuse_seeded_ctr(
    cipher_mode: str,
    seed: np.random.Generator | int | None,
    *,
    allow_nonce_reuse: bool = False,
) -> None:
    """Raise ``ValueError`` for CTR nonces from a seeded IV stream.

    ``seed`` is a seeded generator or an integer seed (``None``: OS
    entropy).  Two runs seeded alike draw the same nonces, so different
    plaintexts end up under one (key, nonce) pair and CTR leaks their
    XOR.  Seeded CBC stays allowed: the reproduction tables need
    deterministic IVs.  Only ``SecureCompressor`` exposes the
    ``allow_nonce_reuse`` opt-in (reproducible sweeps, DESIGN.md §5).
    """
    if cipher_mode == "ctr" and seed is not None and not allow_nonce_reuse:
        raise ValueError(
            "cipher_mode='ctr' with a seeded IV stream derives "
            "predictable nonces: two runs with the same seed and key "
            "would encrypt two plaintexts under one (key, nonce) pair "
            "and leak their XOR. CTR nonces must come from OS entropy; "
            "drop the seed or use cipher_mode='cbc'"
        )
