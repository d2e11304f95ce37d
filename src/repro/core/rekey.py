"""Key rotation without recompression.

Long-lived archives outlive keys (personnel changes, key-compromise
drills, mandated rotation periods).  Because the schemes encrypt
*sections*, a container can be moved to a new key by decrypting and
re-encrypting only its ciphertext section — the expensive SZ stages
never rerun.  For Encr-Huffman that means re-encrypting a few hundred
bytes of deflated tree to rotate the protection of a whole archive.

The rotated container gets a fresh IV (never reuse an IV under a new
key) and, when the input was authenticated, a recomputed tag under the
new key.
"""

from __future__ import annotations

import numpy as np

from repro.core import container as cont
from repro.core import integrity
from repro.core.schemes import get_scheme
from repro.crypto import rng as crypto_rng
from repro.crypto.aes import AES128

__all__ = ["rotate_key"]


def rotate_key(
    blob: bytes,
    old_key: bytes,
    new_key: bytes,
    *,
    random_state: np.random.Generator | None = None,
) -> bytes:
    """Re-protect a container under ``new_key``.

    Works for every scheme (``none`` containers pass through, modulo
    re-authentication).  Raises ``ValueError`` on a wrong ``old_key``
    or corrupt container, and on a seeded ``random_state`` for a CTR
    container (see :func:`repro.crypto.rng.refuse_seeded_ctr`).
    """
    was_authenticated = blob[: len(integrity.MAGIC)] == integrity.MAGIC
    if was_authenticated:
        blob = integrity.verify_and_strip(blob, old_key)
    parsed = cont.parse_container(blob)
    scheme = get_scheme(parsed.scheme_id)

    if scheme.requires_key:
        crypto_rng.refuse_seeded_ctr(parsed.cipher_mode, random_state)
        old_cipher = AES128(old_key)
        new_cipher = AES128(new_key)
        sections = scheme.unprotect(
            parsed.sections, old_cipher, parsed.iv, parsed.cipher_mode
        )
        iv = crypto_rng.fresh_iv(parsed.cipher_mode, random_state)
        out_sections = scheme.protect(
            sections, new_cipher, iv, parsed.cipher_mode
        )
        out = cont.pack_container(
            scheme.scheme_id, parsed.cipher_mode, iv, out_sections
        )
    else:
        out = blob
    if was_authenticated:
        out = integrity.authenticate(out, new_key)
    return out
