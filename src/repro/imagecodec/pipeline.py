"""Secure image compression: the scheme layer over the JPEG-like codec.

Mirrors :class:`repro.core.pipeline.SecureCompressor` with the image
codec as the inner compressor — the concrete demonstration that the
paper's white-box schemes are codec-agnostic as long as the codec
exposes its Huffman tree as a section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.protect import Sealer
from repro.imagecodec.codec import ImageCodec, ImageStats

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
    ``random_state`` is refused in CTR mode.

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
        authenticate: bool = False,
        random_state: np.random.Generator | None = None,
    ) -> None:
        self._sealer = Sealer(
            scheme,
            key=key,
            cipher_mode=cipher_mode,
            authenticate=authenticate,
            random_state=random_state,
        )
        self._codec = ImageCodec(quality)

    @property
    def scheme(self) -> str:
        """The active scheme's registry name."""
        return self._sealer.scheme.name

    @property
    def codec(self) -> ImageCodec:
        """The inner JPEG-like codec."""
        return self._codec

    def compress(self, image: np.ndarray) -> ImageCompressResult:
        """Encode ``image`` and apply the scheme's protection."""
        sections, stats = self._codec.encode(image)
        return ImageCompressResult(
            container=self._sealer.seal(sections),
            stats=stats,
            encrypted_bytes=self._sealer.scheme.encrypted_bytes(sections),
            scheme=self.scheme,
        )

    def decompress(self, blob: bytes) -> np.ndarray:
        """Invert :meth:`compress` back to the lossy image."""
        return self._codec.decode(self._sealer.open(blob))
