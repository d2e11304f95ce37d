"""Authenticated containers: encrypt-then-MAC over the SECZ stream.

The paper's motivation (Sec. III-A) is that a *single* flipped bit can
invalidate a lossy-compressed dataset — and worse, some flips decode
silently (see :mod:`repro.security.attacks`).  Encryption alone does
not detect tampering: CBC decryption of a modified ciphertext yields
garbage that may still parse.  This module adds the standard fix, an
encrypt-then-MAC wrapper: an HMAC-SHA256 tag over the complete
container, keyed separately from the cipher key (derived via HKDF-like
expansion so callers still manage a single 16-byte master key).

Wire format::

    'SECA' | tag (32 bytes) | inner SECZ container

Verification is constant-time (``hmac.compare_digest``) and happens
*before* any parsing of attacker-controlled bytes.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.core.container import Container, parse_container

__all__ = [
    "authenticate",
    "verify_and_strip",
    "read_header",
    "derive_mac_key",
    "AuthenticationError",
    "MAGIC",
    "TAG_BYTES",
]

MAGIC = b"SECA"
TAG_BYTES = 32


class AuthenticationError(ValueError):
    """The container's HMAC tag does not match its contents."""


def derive_mac_key(master_key: bytes) -> bytes:
    """Derive the MAC key from the AES master key.

    HKDF-style expansion with a fixed info label, so the cipher and
    MAC keys are computationally independent even though the user
    handles one secret.
    """
    if len(master_key) != 16:
        raise ValueError("master key must be 16 bytes")
    return hmac.new(master_key, b"repro.secz/mac-key/v1",
                    hashlib.sha256).digest()


def authenticate(container: bytes, master_key: bytes) -> bytes:
    """Wrap a SECZ container with an HMAC-SHA256 tag."""
    tag = hmac.new(derive_mac_key(master_key), container,
                   hashlib.sha256).digest()
    return MAGIC + tag + container


def verify_and_strip(blob: bytes, master_key: bytes) -> bytes:
    """Verify an authenticated container and return the inner SECZ.

    Raises
    ------
    AuthenticationError
        If the magic is wrong, the blob is truncated, or the tag does
        not match — i.e. on *any* tampering, including the single-bit
        flips of the paper's motivation.
    """
    header = len(MAGIC) + TAG_BYTES
    if len(blob) < header or blob[: len(MAGIC)] != MAGIC:
        raise AuthenticationError("not an authenticated SECZ container")
    tag = blob[len(MAGIC) : header]
    inner = blob[header:]
    expected = hmac.new(derive_mac_key(master_key), inner,
                        hashlib.sha256).digest()
    if not hmac.compare_digest(tag, expected):
        raise AuthenticationError("container failed authentication")
    return inner


def read_header(blob: bytes) -> tuple[Container, bool]:
    """Parse a SECZ container behind an optional, *unverified* SECA tag.

    Returns the parsed container and whether a tag was present.  This
    picks a reader (scheme, cipher mode) before any key is applied;
    :meth:`repro.core.protect.Sealer.open` is what verifies the tag.
    """
    tagged = blob[: len(MAGIC)] == MAGIC
    inner = blob[len(MAGIC) + TAG_BYTES :] if tagged else blob
    return parse_container(inner), tagged
