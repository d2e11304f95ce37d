"""Scalar AES-128 block cipher: the CBC chain kernel.

:func:`cbc_encrypt_words` runs the classic four-T-table formulation.
Each round of the cipher collapses into 16 table lookups and 20 XORs
on 32-bit column words, which is the fastest thing pure Python can do
per block.  CBC *encryption* must run block-by-block (ciphertext
chaining), so this loop is the paper's Algorithm-1 path: it takes a
window of plaintext words, keeps the chain value in four ints and
packs the ciphertext once.  Everything else (CBC decryption, CTR)
runs on the vectorized :mod:`repro.crypto.batch` engine; the scalar
one-block oracles both engines are tested against live in
``tests/oracles.py``.
"""

from __future__ import annotations

import struct

from repro.crypto.keyschedule import ROUNDS, ExpandedKey
from repro.crypto.sbox import SBOX, T0, T1, T2, T3

__all__ = ["cbc_encrypt_words", "BLOCK_BYTES"]

BLOCK_BYTES = 16
#: One block as four big-endian column words (FIPS-197 ``w[i]`` order).
_BLOCK_WORDS = struct.Struct(">4I")


def cbc_encrypt_words(words: list[int], key: ExpandedKey, chain: bytes) -> bytes:
    """CBC-encrypt whole blocks given as big-endian 32-bit plaintext words.

    ``words`` holds four column words per block (a slice of
    ``np.frombuffer(..., ">u4")``, made a list); ``chain`` is the
    16-byte value the first block XORs: the IV, or the last ciphertext
    block of the previous window.  The chain value lives in four local
    ints and the round keys are unpacked once per call, so a block
    costs only its rounds.  ``words`` is consumed: each block's words
    are overwritten with its ciphertext, so the kernel keeps no second
    per-block list.  Returns the ciphertext bytes, packed once; their
    last 16 bytes chain the next window.
    """
    c0, c1, c2, c3 = _BLOCK_WORDS.unpack(chain)
    k = key.words
    k0, k1, k2, k3 = k[0:4]
    inner = [k[4 * r : 4 * r + 4] for r in range(1, ROUNDS)]
    f0, f1, f2, f3 = k[4 * ROUNDS :]
    t0, t1, t2, t3, s = T0, T1, T2, T3, SBOX
    it = iter(words)
    for i, (p0, p1, p2, p3) in enumerate(zip(it, it, it, it)):
        w0 = p0 ^ c0 ^ k0
        w1 = p1 ^ c1 ^ k1
        w2 = p2 ^ c2 ^ k2
        w3 = p3 ^ c3 ^ k3
        # Words stay below 2**32, so the top byte needs no mask; w3 is
        # overwritten last, once no other column still reads it.
        for r0, r1, r2, r3 in inner:
            e0 = t0[w0 >> 24] ^ t1[(w1 >> 16) & 0xFF] ^ t2[(w2 >> 8) & 0xFF] ^ t3[w3 & 0xFF] ^ r0
            e1 = t0[w1 >> 24] ^ t1[(w2 >> 16) & 0xFF] ^ t2[(w3 >> 8) & 0xFF] ^ t3[w0 & 0xFF] ^ r1
            e2 = t0[w2 >> 24] ^ t1[(w3 >> 16) & 0xFF] ^ t2[(w0 >> 8) & 0xFF] ^ t3[w1 & 0xFF] ^ r2
            w3 = t0[w3 >> 24] ^ t1[(w0 >> 16) & 0xFF] ^ t2[(w1 >> 8) & 0xFF] ^ t3[w2 & 0xFF] ^ r3
            w0, w1, w2 = e0, e1, e2
        # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        c0 = (
            s[w0 >> 24] << 24 | s[(w1 >> 16) & 0xFF] << 16
            | s[(w2 >> 8) & 0xFF] << 8 | s[w3 & 0xFF]
        ) ^ f0
        c1 = (
            s[w1 >> 24] << 24 | s[(w2 >> 16) & 0xFF] << 16
            | s[(w3 >> 8) & 0xFF] << 8 | s[w0 & 0xFF]
        ) ^ f1
        c2 = (
            s[w2 >> 24] << 24 | s[(w3 >> 16) & 0xFF] << 16
            | s[(w0 >> 8) & 0xFF] << 8 | s[w1 & 0xFF]
        ) ^ f2
        c3 = (
            s[w3 >> 24] << 24 | s[(w0 >> 16) & 0xFF] << 16
            | s[(w1 >> 8) & 0xFF] << 8 | s[w2 & 0xFF]
        ) ^ f3
        words[4 * i : 4 * i + 4] = c0, c1, c2, c3
    return struct.pack(f">{len(words)}I", *words)
