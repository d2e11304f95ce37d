"""The :class:`AES128` façade used by the secure-compression schemes.

A thin object wrapper that owns an expanded key and exposes the two
mode families.  The schemes in :mod:`repro.core.schemes` never touch
round keys or block functions directly — they call
``aes.encrypt_cbc`` / ``aes.decrypt_cbc`` on byte sections of the
compressed stream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto import modes, rng
from repro.crypto.keyschedule import ExpandedKey, expand_key

__all__ = ["AES128", "EncryptionResult", "OneShotCTR", "derive_key"]


def derive_key(passphrase: str | bytes, *, salt: bytes = b"repro.secz") -> bytes:
    """Derive a 16-byte AES key from a passphrase (PBKDF2-HMAC-SHA256).

    A convenience for the examples and CLI; experiment code passes raw
    16-byte keys.
    """
    if isinstance(passphrase, str):
        passphrase = passphrase.encode("utf-8")
    return hashlib.pbkdf2_hmac("sha256", passphrase, salt, 10_000, dklen=16)


@dataclass(frozen=True)
class EncryptionResult:
    """Ciphertext together with the IV/nonce needed to reverse it."""

    ciphertext: bytes
    iv: bytes
    mode: str


class AES128:
    """AES-128 with CBC (paper default) and CTR modes.

    Parameters
    ----------
    key:
        Exactly 16 bytes of key material (use :func:`derive_key` to get
        one from a passphrase).

    Examples
    --------
    >>> cipher = AES128(bytes(range(16)))
    >>> enc = cipher.encrypt_cbc(b"attack at dawn", iv=bytes(16))
    >>> cipher.decrypt_cbc(enc.ciphertext, enc.iv)
    b'attack at dawn'
    """

    def __init__(self, key: bytes) -> None:
        self._schedule: ExpandedKey = expand_key(bytes(key))

    @property
    def schedule(self) -> ExpandedKey:
        """The expanded key schedule (read-only)."""
        return self._schedule

    def encrypt_cbc(self, plaintext: bytes, iv: bytes | None = None) -> EncryptionResult:
        """CBC-encrypt ``plaintext``; a random IV is drawn when omitted."""
        if iv is None:
            iv = rng.generate_iv()
        ct = modes.cbc_encrypt(plaintext, self._schedule, iv)
        return EncryptionResult(ciphertext=ct, iv=iv, mode="cbc")

    def decrypt_cbc(self, ciphertext: bytes, iv: bytes) -> bytes:
        """CBC-decrypt and unpad; raises ``ValueError`` on bad padding."""
        return modes.cbc_decrypt(ciphertext, self._schedule, iv)

    def encrypt_ctr(self, plaintext: bytes, nonce: bytes | None = None) -> EncryptionResult:
        """CTR-encrypt ``plaintext``; a random nonce is drawn when omitted."""
        if nonce is None:
            nonce = rng.generate_nonce()
        ct = modes.ctr_xcrypt(plaintext, self._schedule, nonce)
        return EncryptionResult(ciphertext=ct, iv=nonce, mode="ctr")

    def decrypt_ctr(self, ciphertext: bytes, nonce: bytes) -> bytes:
        """CTR-decrypt (CTR is an involution, so this mirrors encrypt)."""
        return modes.ctr_xcrypt(ciphertext, self._schedule, nonce)

    def encrypt(self, plaintext: bytes, *, mode: str = "cbc", iv: bytes | None = None) -> EncryptionResult:
        """Mode-dispatching entry point (``mode`` in {"cbc", "ctr"})."""
        if mode == "cbc":
            method = self.encrypt_cbc
        elif mode == "ctr":
            method = self.encrypt_ctr
        else:
            raise ValueError(f"unknown cipher mode {mode!r}")
        return method(plaintext, iv)

    def decrypt(self, ciphertext: bytes, iv: bytes, *, mode: str = "cbc") -> bytes:
        """Mode-dispatching inverse of :meth:`encrypt`."""
        if mode == "cbc":
            return self.decrypt_cbc(ciphertext, iv)
        if mode == "ctr":
            return self.decrypt_ctr(ciphertext, iv)
        raise ValueError(f"unknown cipher mode {mode!r}")


class OneShotCTR:
    """A view of an :class:`AES128` that lets ``nonce`` encrypt once.

    :meth:`~repro.core.protect.Sealer.seal` hands this to the scheme
    layer in CTR mode, which makes the nonce rule (*one*
    (key, nonce) pair per plaintext — DESIGN.md §5) executable: a
    second CTR encryption under ``nonce`` raises instead of silently
    reusing keystream.  Other nonces and CBC delegate.  ``encrypt`` —
    the one call ``protect`` makes — is all it exposes, so there is no
    way around the guard.
    """

    def __init__(self, inner: AES128, nonce: bytes) -> None:
        self._inner = inner
        self._nonce = bytes(nonce)
        self._used = False

    def encrypt(self, plaintext: bytes, *, mode: str = "cbc", iv: bytes | None = None) -> EncryptionResult:
        if mode == "ctr" and iv == self._nonce:
            if self._used:
                raise RuntimeError(
                    "CTR keystream for this nonce was already consumed; "
                    "a (key, nonce) pair must never encrypt two plaintexts"
                )
            self._used = True
        return self._inner.encrypt(plaintext, mode=mode, iv=iv)
