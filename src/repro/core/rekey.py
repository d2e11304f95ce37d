"""Key rotation without recompression.

Long-lived archives outlive keys (personnel changes, key-compromise
drills, mandated rotation periods).  Because the schemes encrypt
*sections*, a container can be moved to a new key by decrypting and
re-encrypting only its ciphertext section — the expensive SZ stages
never rerun.  For Encr-Huffman that means re-encrypting a few hundred
bytes of deflated tree to rotate the protection of a whole archive.

Rotation is one :meth:`~repro.core.protect.Sealer.open` under the old
key and one :meth:`~repro.core.protect.Sealer.seal` under the new key,
in the container's scheme and cipher mode.  The rotated container gets
a fresh IV (never reuse an IV under a new key) and, when the input was
authenticated, a recomputed tag under the new key.
"""

from __future__ import annotations

import numpy as np

from repro.core import container as cont
from repro.core import integrity
from repro.core.protect import Sealer
from repro.core.schemes import get_scheme

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
    tagged = blob[: len(integrity.MAGIC)] == integrity.MAGIC
    if tagged:
        blob = integrity.verify_and_strip(blob, old_key)
    parsed = cont.parse_container(blob)
    scheme = get_scheme(parsed.scheme_id)
    if not scheme.requires_key:
        # Nothing is encrypted: the container passes through as is.
        return integrity.authenticate(blob, new_key) if tagged else blob
    old = Sealer(scheme.name, key=old_key, cipher_mode=parsed.cipher_mode)
    new = Sealer(
        scheme.name,
        key=new_key,
        cipher_mode=parsed.cipher_mode,
        authenticate=tagged,
        random_state=random_state,
    )
    return new.seal(old.open(blob))
