"""Secure multilevel compression through the seal path."""

from __future__ import annotations

import numpy as np

from repro.core.protect import Sealer
from repro.multilevel.codec import MultilevelCodec, MultilevelStats

__all__ = ["SecureMultilevelCompressor"]


class SecureMultilevelCompressor:
    """The scheme layer over the MGARD-like codec.

    Examples
    --------
    >>> import numpy as np
    >>> smc = SecureMultilevelCompressor("encr_huffman", 1e-3,
    ...                                  key=bytes(16))
    >>> u = np.sin(np.linspace(0, 6, 4096)).reshape(16, 16, 16)
    >>> blob = smc.compress(u)
    >>> bool(np.abs(smc.decompress(blob) - u).max() <= 1e-3)
    True
    """

    def __init__(
        self,
        scheme: str = "encr_huffman",
        error_bound: float = 1e-3,
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
        self.scheme = scheme
        self._codec = MultilevelCodec(error_bound)
        self.last_stats: MultilevelStats | None = None

    @property
    def codec(self) -> MultilevelCodec:
        """The inner multilevel codec."""
        return self._codec

    def compress(self, data: np.ndarray) -> bytes:
        """Encode and protect ``data``; stats land in ``last_stats``."""
        sections, self.last_stats = self._codec.encode(data)
        return self._sealer.seal(sections)

    def decompress(self, blob: bytes) -> np.ndarray:
        """Invert :meth:`compress` within the codec's error bound."""
        return self._codec.decode(self._sealer.open(blob))
