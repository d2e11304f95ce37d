"""Secure image compression: the scheme layer over the JPEG-like codec.

Mirrors :class:`repro.core.pipeline.SecureCompressor` with the image
codec as the inner compressor — the concrete demonstration that the
paper's white-box schemes are codec-agnostic as long as the codec
exposes its Huffman tree as a section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import container as cont
from repro.core import integrity
from repro.core.schemes import Scheme, get_scheme
from repro.crypto import rng as crypto_rng
from repro.crypto.aes import AES128
from repro.imagecodec.codec import ImageCodec, ImageStats
from repro.sz.lossless import DEFAULT_LEVEL

__all__ = ["SecureImageCompressor", "ImageCompressResult"]


@dataclass(frozen=True)
class ImageCompressResult:
    """Container plus the codec's statistics."""

    container: bytes
    stats: ImageStats
    encrypted_bytes: int
    scheme: str

    @property
    def compressed_bytes(self) -> int:
        return len(self.container)


class SecureImageCompressor:
    """Compress-and-protect grayscale images.

    Parameters mirror :class:`~repro.core.pipeline.SecureCompressor`,
    with ``quality`` replacing the error bound.  A seeded
    ``random_state`` is refused in CTR mode (there is no
    ``allow_nonce_reuse`` escape hatch here).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.imagecodec import SecureImageCompressor
    >>> img = np.tile(np.linspace(0, 255, 48), (48, 1))
    >>> sic = SecureImageCompressor(quality=85, key=bytes(16))
    >>> result = sic.compress(img)
    >>> out = sic.decompress(result.container)
    >>> out.shape
    (48, 48)
    """

    def __init__(
        self,
        scheme: str = "encr_huffman",
        quality: int = 75,
        *,
        key: bytes | None = None,
        cipher_mode: str = "cbc",
        zlib_level: int = DEFAULT_LEVEL,
        authenticate: bool = False,
        random_state: np.random.Generator | None = None,
    ) -> None:
        self._scheme: Scheme = get_scheme(scheme)
        if cipher_mode not in cont.CIPHER_MODES:
            raise ValueError(f"unknown cipher mode {cipher_mode!r}")
        crypto_rng.refuse_seeded_ctr(cipher_mode, random_state)
        self.cipher_mode = cipher_mode
        if self._scheme.requires_key or authenticate:
            if key is None:
                raise ValueError("this configuration requires a 16-byte key")
            self._cipher: AES128 | None = AES128(key)
        else:
            self._cipher = AES128(key) if key is not None else None
        self.authenticate = authenticate
        self._master_key = key
        self._codec = ImageCodec(quality)
        self.zlib_level = zlib_level
        self._random_state = random_state

    @property
    def scheme(self) -> str:
        """The active scheme's registry name."""
        return self._scheme.name

    @property
    def codec(self) -> ImageCodec:
        """The inner JPEG-like codec."""
        return self._codec

    def _fresh_iv(self) -> bytes:
        if self.cipher_mode == "ctr":
            return crypto_rng.generate_nonce(self._random_state)
        return crypto_rng.generate_iv(self._random_state)

    def compress(self, image: np.ndarray) -> ImageCompressResult:
        """Encode ``image`` and apply the scheme's protection."""
        sections, stats = self._codec.encode(image)
        iv = self._fresh_iv()
        out_sections = self._scheme.protect(
            sections, self._cipher, iv, self.cipher_mode, self.zlib_level
        )
        blob = cont.pack_container(
            self._scheme.scheme_id, self.cipher_mode, iv, out_sections
        )
        if self.authenticate:
            blob = integrity.authenticate(blob, self._master_key)
        return ImageCompressResult(
            container=blob,
            stats=stats,
            encrypted_bytes=self._scheme.encrypted_bytes(sections),
            scheme=self._scheme.name,
        )

    def decompress(self, blob: bytes) -> np.ndarray:
        """Invert :meth:`compress` back to the lossy image."""
        if blob[: len(integrity.MAGIC)] == integrity.MAGIC:
            if self._master_key is None:
                raise ValueError(
                    "authenticated container requires a key for verification"
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
                f"container was written with scheme {scheme.name!r} but this "
                f"compressor is configured for {self._scheme.name!r}"
            )
        sections = scheme.unprotect(
            parsed.sections, self._cipher, parsed.iv, parsed.cipher_mode
        )
        return self._codec.decode(sections)
