"""The public façade: :class:`SecureCompressor`.

Couples the SZ-1.4 substrate, an AES-128 cipher, and one of the four
schemes into a single compress/decompress object, producing
self-describing SECZ containers and the size statistics every
experiment in the paper reads (stage times come from ``tracer=``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import trace
from repro.core.protect import Sealer
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
        Bytes of the frame sections whose content the scheme encrypts
        (Sec. V-D's encryption-effort comparison;
        :meth:`~repro.core.schemes.Scheme.encrypted_bytes`).  Not the
        AES input: Cmpr-Encr and Encr-Huffman encrypt a zlib output.
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
        paper's reproduction tables require seeded CBC runs).  No other
        front end has this opt-in.

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
        self._sealer = Sealer(
            scheme,
            key=key,
            cipher_mode=cipher_mode,
            authenticate=authenticate,
            random_state=random_state,
            allow_nonce_reuse=allow_nonce_reuse,
        )
        self._sz = SZCompressor(error_bound, predictor=predictor)

    @classmethod
    def from_sealer(
        cls, sealer: Sealer, error_bound: ErrorBound | float = 1e-3
    ) -> "SecureCompressor":
        """A compressor that seals through an existing :class:`Sealer`.

        The sealer's key schedule and IV stream are shared, not
        rebuilt, so a caller compressing under one key at many error
        bounds expands the key once.
        """
        sc = cls.__new__(cls)
        sc._sealer = sealer
        sc._sz = SZCompressor(error_bound)
        return sc

    @property
    def scheme(self) -> str:
        """The active scheme's registry name."""
        return self._sealer.scheme.name

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
        scheme = self._sealer.scheme
        with tr.span(
            "compress", bytes_in=data.nbytes,
            scheme=scheme.name, cipher_mode=self._sealer.cipher_mode,
        ) as root:
            frame = self._sz.compress(data, tracer=tr)
            blob = self._sealer.seal(frame.sections, tr)
            root.bytes_out = len(blob)
        return CompressResult(
            container=blob,
            sz_stats=frame.stats,
            encrypted_bytes=scheme.encrypted_bytes(frame.sections),
            scheme=scheme.name,
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
            "decompress", bytes_in=len(blob), scheme=self.scheme,
        ) as root:
            frame = SZFrame(
                sections=self._sealer.open(blob, tr),
                stats=_placeholder_stats(),
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
