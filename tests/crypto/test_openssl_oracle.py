"""Algorithm-1 CBC and the CTR fast path against OpenSSL.

The paper's implementation encrypted with OpenSSL's AES-128-CBC; the
``cryptography`` package wraps that library, so it serves as an
independent oracle for :mod:`repro.crypto.modes` over random keys,
IVs, nonces, counter offsets and lengths.  The lengths run from 0 to
three ``CTR_SEGMENT_BLOCKS`` windows plus one byte, so every seam
between the bounded windows of both modes is crossed.  The module is
skipped where ``cryptography`` is not installed; it is a test-only
dependency, never a runtime one.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("cryptography")
from cryptography.hazmat.primitives import padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from cryptography.hazmat.primitives.ciphers import modes as ossl

from repro.crypto import modes
from repro.crypto.keyschedule import expand_key

SEGMENT = modes.CTR_SEGMENT_BLOCKS * modes.BLOCK_BYTES
LENGTHS = [0, 1, 15, 16, 17, 31, 32, 33, 1000,
           SEGMENT - 1, SEGMENT, SEGMENT + 1, 2 * SEGMENT + 7, 3 * SEGMENT + 1]


def _draw(seed: int, n: int) -> tuple[bytes, bytes, bytes]:
    rng = np.random.default_rng(seed)
    return rng.bytes(16), rng.bytes(16), rng.bytes(n)


def _openssl_cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    padder = padding.PKCS7(128).padder()
    padded = padder.update(plaintext) + padder.finalize()
    enc = Cipher(algorithms.AES(key), ossl.CBC(iv)).encryptor()
    return enc.update(padded) + enc.finalize()


def _openssl_ctr(key: bytes, nonce: bytes, initial: int, data: bytes) -> bytes:
    block = nonce + initial.to_bytes(8, "big")
    enc = Cipher(algorithms.AES(key), ossl.CTR(block)).encryptor()
    return enc.update(data) + enc.finalize()


@pytest.mark.parametrize("n", LENGTHS)
def test_cbc_matches_openssl(n):
    key, iv, plaintext = _draw(n, n)
    expected = _openssl_cbc_encrypt(key, iv, plaintext)
    ek = expand_key(key)
    assert modes.cbc_encrypt(plaintext, ek, iv) == expected
    assert modes.cbc_decrypt(expected, ek, iv) == plaintext


@pytest.mark.parametrize("n", LENGTHS)
def test_ctr_matches_openssl(n):
    key, nonce16, data = _draw(10_000 + n, n)
    nonce = nonce16[:8]
    rng = np.random.default_rng(n)
    n_blocks = -(-n // modes.BLOCK_BYTES)
    # Offsets: zero, random, and the last start the 64-bit counter
    # allows (OpenSSL would carry into the nonce one block later).
    for initial in (0, int(rng.integers(0, 1 << 62)), (1 << 64) - max(n_blocks, 1)):
        expected = _openssl_ctr(key, nonce, initial, data)
        ek = expand_key(key)
        assert modes.ctr_xcrypt(data, ek, nonce, initial) == expected
        assert modes.ctr_xcrypt(expected, ek, nonce, initial) == data
        keystream = modes.ctr_keystream(ek, nonce, n, initial)
        assert keystream.tobytes() == _openssl_ctr(key, nonce, initial, bytes(n))
