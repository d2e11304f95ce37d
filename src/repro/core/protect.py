"""Codec-agnostic protect/unprotect helpers.

Any codec that emits the standard named sections (``meta`` / ``tree`` /
``codes`` / ``unpred`` / ``coeffs`` / ``exact`` / ``aux``) can be
protected by any scheme through these two functions — they bundle
scheme dispatch, IV generation, container framing and (optionally) the
authentication wrapper.  The SZ and image pipelines predate this module
and keep their richer result objects; new codecs (e.g.
:mod:`repro.multilevel`) build on these directly.
"""

from __future__ import annotations

import numpy as np

from repro.core import container as cont
from repro.core import integrity
from repro.core.schemes import get_scheme
from repro.crypto import rng as crypto_rng
from repro.crypto.aes import AES128

__all__ = ["protect_sections", "unprotect_container"]


def protect_sections(
    sections: dict[str, bytes],
    scheme: str,
    *,
    key: bytes | None = None,
    cipher_mode: str = "cbc",
    authenticate: bool = False,
    random_state: np.random.Generator | None = None,
) -> bytes:
    """Apply ``scheme`` to codec sections and return a SECZ container.

    ``random_state`` seeds CBC IVs for reproducible experiments; CTR
    refuses it (see :func:`repro.crypto.rng.refuse_seeded_ctr`).
    """
    scheme_obj = get_scheme(scheme)
    if (scheme_obj.requires_key or authenticate) and key is None:
        raise ValueError(f"scheme {scheme!r} (or authentication) requires a key")
    crypto_rng.refuse_seeded_ctr(cipher_mode, random_state)
    cipher = AES128(key) if key is not None else None
    iv = crypto_rng.fresh_iv(cipher_mode, random_state)
    out = scheme_obj.protect(sections, cipher, iv, cipher_mode)
    blob = cont.pack_container(scheme_obj.scheme_id, cipher_mode, iv, out)
    if authenticate:
        blob = integrity.authenticate(blob, key)
    return blob


def unprotect_container(
    blob: bytes,
    *,
    key: bytes | None = None,
    expected_scheme: str | None = None,
) -> dict[str, bytes]:
    """Reverse :func:`protect_sections` back to codec sections.

    The scheme is read from the container header; pass
    ``expected_scheme`` to enforce a specific one.  Authenticated
    (``SECA``) containers are verified first.
    """
    if blob[: len(integrity.MAGIC)] == integrity.MAGIC:
        if key is None:
            raise ValueError("authenticated container requires a key")
        blob = integrity.verify_and_strip(blob, key)
    parsed = cont.parse_container(blob)
    scheme_obj = get_scheme(parsed.scheme_id)
    if expected_scheme is not None and scheme_obj.name != expected_scheme:
        raise ValueError(
            f"container was written with scheme {scheme_obj.name!r}, "
            f"expected {expected_scheme!r}"
        )
    if scheme_obj.requires_key and key is None:
        raise ValueError(f"scheme {scheme_obj.name!r} requires a key")
    cipher = AES128(key) if key is not None else None
    return scheme_obj.unprotect(
        parsed.sections, cipher, parsed.iv, parsed.cipher_mode
    )
