"""The seal path: codec sections to a SECZ container and back.

Every front end (``SecureCompressor``, the image and multilevel
compressors, ``rotate_key``) seals and opens containers through one
:class:`Sealer`, for any codec that emits the standard named sections.
Sealing is the tail of the paper's Algorithm 1: draw a fresh IV, run
the scheme's encrypt and zlib steps, frame the container, and
optionally add the encrypt-then-MAC tag (:mod:`repro.core.integrity`).
``ArchiveStore`` seals single blobs, not scheme sections, and keeps
its own framing.
"""

from __future__ import annotations

import numpy as np

from repro.core import container as cont
from repro.core import integrity
from repro.core import trace
from repro.core.schemes import Scheme, get_scheme
from repro.crypto import rng as crypto_rng
from repro.crypto.aes import AES128, OneShotCTR
from repro.sz.compressor import SECTION_ORDER

__all__ = ["Sealer"]


class Sealer:
    """One scheme, key and cipher mode, sealing and opening containers.

    Parameters mirror :class:`~repro.core.pipeline.SecureCompressor`.
    The key schedule is expanded once, here.  Seeded CTR is refused at
    construction (:func:`~repro.crypto.rng.refuse_seeded_ctr`), and in
    CTR mode the scheme gets a one-shot view of the cipher
    (:class:`~repro.crypto.aes.OneShotCTR`), so a second encryption
    under the container's nonce raises.  :meth:`open` reads the cipher
    mode from the container header.
    """

    def __init__(
        self,
        scheme: str,
        *,
        key: bytes | None = None,
        cipher_mode: str = "cbc",
        authenticate: bool = False,
        random_state: np.random.Generator | None = None,
        allow_nonce_reuse: bool = False,
    ) -> None:
        self.scheme: Scheme = get_scheme(scheme)
        if cipher_mode not in cont.CIPHER_MODES:
            raise ValueError(f"unknown cipher mode {cipher_mode!r}")
        crypto_rng.refuse_seeded_ctr(
            cipher_mode, random_state, allow_nonce_reuse=allow_nonce_reuse
        )
        if key is None and (self.scheme.requires_key or authenticate):
            need = "authentication" if authenticate else f"scheme {scheme!r}"
            raise ValueError(f"{need} requires a 16-byte key; pass key=")
        self.cipher_mode = cipher_mode
        self.authenticate = authenticate
        self._key = key
        self._cipher = AES128(key) if key is not None else None
        self._random_state = random_state

    def seal(
        self, sections: dict[str, bytes], tracer: trace.Tracer | None = None
    ) -> bytes:
        """Protect codec ``sections`` under a fresh IV into a container."""
        tr = tracer or trace.NULL_TRACER
        iv = crypto_rng.fresh_iv(self.cipher_mode, self._random_state)
        cipher = self._cipher
        if self.cipher_mode == "ctr" and cipher is not None:
            # One (key, nonce) pair per plaintext: a second CTR
            # encryption under ``iv`` raises (DESIGN.md §5).
            cipher = OneShotCTR(cipher, iv)
        with tr.span("protect") as sp:
            out = self.scheme.protect(
                sections, cipher, iv, self.cipher_mode, tr
            )
            sp.bytes_out = sum(len(v) for v in out.values())
        blob = cont.pack_container(
            self.scheme.scheme_id, self.cipher_mode, iv, out
        )
        if self.authenticate:
            blob = integrity.authenticate(blob, self._key)
        return blob

    def open(
        self, blob: bytes, tracer: trace.Tracer | None = None
    ) -> dict[str, bytes]:
        """Invert :meth:`seal` back to the codec sections.

        A tagged (``SECA``) container is verified before any parsing;
        verification failure, or an untagged container when
        ``authenticate`` is set, raises
        :class:`~repro.core.integrity.AuthenticationError`.  A container
        of another scheme, or one whose sections lack any of
        :data:`~repro.sz.compressor.SECTION_ORDER`, raises
        ``ValueError``.  ``tracer`` records an ``unprotect`` span.
        """
        tr = tracer or trace.NULL_TRACER
        if blob[: len(integrity.MAGIC)] == integrity.MAGIC:
            if self._key is None:
                raise ValueError(
                    "authenticated container requires a key for verification"
                )
            blob = integrity.verify_and_strip(blob, self._key)
        elif self.authenticate:
            raise integrity.AuthenticationError(
                "expected an authenticated (SECA) container"
            )
        parsed = cont.parse_container(blob)
        scheme = get_scheme(parsed.scheme_id)
        if scheme.name != self.scheme.name:
            raise ValueError(
                f"container was written with scheme {scheme.name!r} but "
                f"this compressor is configured for {self.scheme.name!r}"
            )
        with tr.span("unprotect"):
            sections = scheme.unprotect(
                parsed.sections, self._cipher, parsed.iv,
                parsed.cipher_mode, tr,
            )
        for name in SECTION_ORDER:
            if name not in sections:
                raise ValueError(
                    f"container is missing required section {name!r}"
                )
        return sections
