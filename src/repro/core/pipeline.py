"""The public façade: :class:`SecureCompressor`.

Couples the SZ-1.4 substrate, an AES-128 cipher, and one of the four
schemes into a single compress/decompress object, producing
self-describing SECZ containers and the size statistics every
experiment in the paper reads (stage times come from ``tracer=``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import container as cont
from repro.core import integrity
from repro.core import trace
from repro.core.schemes import Scheme, get_scheme
from repro.crypto import rng as crypto_rng
from repro.crypto.aes import AES128, OneShotCTR
from repro.sz.compressor import CompressionStats, SZCompressor, SZFrame
from repro.sz.quantizer import ErrorBound

__all__ = ["SecureCompressor", "CompressResult"]


@dataclass(frozen=True)
class CompressResult:
    """Everything one secure compression produced.

    Attributes
    ----------
    container:
        The complete SECZ byte stream (what you store or transmit).
    sz_stats:
        The inner compressor's statistics (predictable fraction,
        section sizes — Figs. 2–4).
    encrypted_bytes:
        How many plaintext bytes went through AES (Sec. V-D's
        encryption-effort comparison).
    scheme:
        Registry name of the scheme used.
    """

    container: bytes
    sz_stats: CompressionStats
    encrypted_bytes: int
    scheme: str

    @property
    def compressed_bytes(self) -> int:
        """Final container size in bytes."""
        return len(self.container)


class SecureCompressor:
    """Compress-and-protect floating-point fields (the paper's system).

    Parameters
    ----------
    scheme:
        ``"none"``, ``"cmpr_encr"``, ``"encr_quant"`` or
        ``"encr_huffman"`` (the paper's recommendation).
    error_bound:
        Absolute bound (float) or an :class:`ErrorBound`.
    key:
        16-byte AES-128 key; required by every scheme except ``none``.
    cipher_mode:
        ``"cbc"`` (the paper's Algorithm-1 choice and the fidelity
        default — emitted frames match the reproduction tables byte
        for byte) or ``"ctr"`` — the recommended **throughput** mode:
        encryption runs on the batched engine, over exactly the
        keystream blocks the ciphertext needs.
    predictor:
        Forwarded to :class:`~repro.sz.compressor.SZCompressor`.
    authenticate:
        Wrap the container with an encrypt-then-MAC HMAC-SHA256 tag
        (see :mod:`repro.core.integrity`).  Tampering — including the
        single-bit flips of the paper's Sec. III-A motivation — is then
        always detected before any decoding.  Requires a key.
    random_state:
        Optional seeded ``numpy.random.Generator`` for deterministic
        IVs (experiments); production defaults to OS entropy.
    allow_nonce_reuse:
        Seeded CTR runs derive *deterministic* nonces: two runs with
        the same seed and key encrypt different plaintexts under one
        (key, nonce) pair, which leaks their XOR.  The constructor
        therefore refuses ``cipher_mode="ctr"`` + ``random_state``
        unless this flag is set explicitly (reproducible experiments
        on non-sensitive data only — see DESIGN.md).  CBC is unaffected
        (a repeated CBC IV leaks only equal-prefix information, and the
        paper's reproduction tables require seeded CBC runs).

    Examples
    --------
    >>> import numpy as np
    >>> sc = SecureCompressor(scheme="encr_huffman", error_bound=1e-4,
    ...                       key=b"0123456789abcdef")
    >>> data = np.sin(np.linspace(0, 6, 4096, dtype=np.float32))
    >>> result = sc.compress(data)
    >>> restored = sc.decompress(result.container)
    >>> bool(np.max(np.abs(restored - data)) <= 1e-4)
    True
    """

    def __init__(
        self,
        scheme: str = "encr_huffman",
        error_bound: ErrorBound | float = 1e-3,
        *,
        key: bytes | None = None,
        cipher_mode: str = "cbc",
        predictor: str = "auto",
        authenticate: bool = False,
        random_state: np.random.Generator | None = None,
        allow_nonce_reuse: bool = False,
    ) -> None:
        self._scheme: Scheme = get_scheme(scheme)
        if cipher_mode not in cont.CIPHER_MODES:
            raise ValueError(f"unknown cipher mode {cipher_mode!r}")
        if (
            cipher_mode == "ctr"
            and random_state is not None
            and not allow_nonce_reuse
        ):
            raise ValueError(
                "cipher_mode='ctr' with a seeded random_state derives "
                "deterministic nonces: re-running with the same seed and "
                "key would encrypt two plaintexts under one (key, nonce) "
                "pair and leak their XOR. Pass allow_nonce_reuse=True "
                "only for reproducible experiments on non-sensitive data "
                "(DESIGN.md), or drop random_state to use OS entropy."
            )
        self.cipher_mode = cipher_mode
        self.allow_nonce_reuse = allow_nonce_reuse
        if self._scheme.requires_key or authenticate:
            if key is None:
                need = "authentication" if authenticate else f"scheme {scheme!r}"
                raise ValueError(f"{need} requires a 16-byte key; pass key=")
            self._cipher: AES128 | None = AES128(key)
        else:
            self._cipher = AES128(key) if key is not None else None
        self.authenticate = authenticate
        self._master_key = key
        self._sz = SZCompressor(error_bound, predictor=predictor)
        self._random_state = random_state

    @property
    def scheme(self) -> str:
        """The active scheme's registry name."""
        return self._scheme.name

    @property
    def sz(self) -> SZCompressor:
        """The underlying SZ compressor (read-mostly)."""
        return self._sz

    # ------------------------------------------------------------------

    def compress(
        self, data: np.ndarray, *, tracer: trace.Tracer | None = None
    ) -> CompressResult:
        """Compress ``data`` and apply the scheme's protection.

        Pass a :class:`repro.core.trace.Tracer` to record a full span
        tree (see docs/OBSERVABILITY.md); its leaves are the stage
        times of Fig. 7 and Tables III–V (:func:`trace.stage_seconds`).
        """
        tr = tracer or trace.NULL_TRACER
        with tr.span(
            "compress", bytes_in=data.nbytes,
            scheme=self._scheme.name, cipher_mode=self.cipher_mode,
        ) as root:
            iv = crypto_rng.fresh_iv(self.cipher_mode, self._random_state)
            cipher = self._cipher
            if self.cipher_mode == "ctr" and cipher is not None:
                # One (key, nonce) pair per plaintext: a second CTR
                # encryption under ``iv`` raises (DESIGN.md §5).
                cipher = OneShotCTR(cipher, iv)
            frame = self._sz.compress(data, tracer=tr)
            with tr.span("protect") as psp:
                out_sections = self._scheme.protect(
                    frame.sections, cipher, iv, self.cipher_mode, tr
                )
                psp.bytes_out = sum(len(v) for v in out_sections.values())
            blob = cont.pack_container(
                self._scheme.scheme_id, self.cipher_mode, iv, out_sections
            )
            if self.authenticate:
                blob = integrity.authenticate(blob, self._master_key)
            root.bytes_out = len(blob)
        return CompressResult(
            container=blob,
            sz_stats=frame.stats,
            encrypted_bytes=self._scheme.encrypted_bytes(frame.sections),
            scheme=self._scheme.name,
        )

    def decompress(
        self, blob: bytes, *, tracer: trace.Tracer | None = None
    ) -> np.ndarray:
        """Decompress a SECZ container back to the bounded field.

        Authenticated containers (``SECA`` magic) are verified before
        any parsing; verification failure raises
        :class:`~repro.core.integrity.AuthenticationError`.
        """
        tr = tracer or trace.NULL_TRACER
        with tr.span(
            "decompress", bytes_in=len(blob), scheme=self._scheme.name,
        ) as root:
            if blob[: len(integrity.MAGIC)] == integrity.MAGIC:
                if self._master_key is None:
                    raise ValueError(
                        "authenticated container requires a key for "
                        "verification"
                    )
                blob = integrity.verify_and_strip(blob, self._master_key)
            elif self.authenticate:
                raise integrity.AuthenticationError(
                    "expected an authenticated (SECA) container"
                )
            parsed = cont.parse_container(blob)
            scheme = get_scheme(parsed.scheme_id)
            if scheme.name != self._scheme.name:
                raise ValueError(
                    f"container was written with scheme {scheme.name!r} but "
                    f"this compressor is configured for {self._scheme.name!r}"
                )
            with tr.span("unprotect"):
                frame_sections = scheme.unprotect(
                    parsed.sections, self._cipher, parsed.iv,
                    parsed.cipher_mode, tr,
                )
            frame = SZFrame(
                sections=frame_sections, stats=_placeholder_stats()
            )
            data = self._sz.decompress(frame, tracer=tr)
            root.bytes_out = data.nbytes
        return data


def _placeholder_stats() -> CompressionStats:
    """Stats stub for frames reassembled at decompression time."""
    return CompressionStats(
        n_elements=0,
        eb_abs=0.0,
        predictor="",
        radius=0,
        unpredictable_count=0,
        section_bytes={},
    )
