"""Secure multilevel compression via the generic protect helpers."""

from __future__ import annotations

import numpy as np

from repro.core import integrity
from repro.core.protect import protect_sections, unprotect_container
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
        self.scheme = scheme
        self._codec = MultilevelCodec(error_bound)
        self._key = key
        self._cipher_mode = cipher_mode
        self._authenticate = authenticate
        self._random_state = random_state
        self.last_stats: MultilevelStats | None = None

    @property
    def codec(self) -> MultilevelCodec:
        """The inner multilevel codec."""
        return self._codec

    def compress(self, data: np.ndarray) -> bytes:
        """Encode and protect ``data``; stats land in ``last_stats``."""
        sections, stats = self._codec.encode(data)
        self.last_stats = stats
        return protect_sections(
            sections,
            self.scheme,
            key=self._key,
            cipher_mode=self._cipher_mode,
            authenticate=self._authenticate,
            random_state=self._random_state,
        )

    def decompress(self, blob: bytes) -> np.ndarray:
        """Invert :meth:`compress` within the codec's error bound."""
        if self._authenticate and blob[: len(integrity.MAGIC)] != integrity.MAGIC:
            raise integrity.AuthenticationError(
                "expected an authenticated (SECA) container"
            )
        sections = unprotect_container(
            blob, key=self._key, expected_scheme=self.scheme
        )
        return self._codec.decode(sections)
