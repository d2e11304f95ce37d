"""NumPy-batched AES-128 ECB engine on 32-bit column words.

Where blocks are *independent* — ECB, CTR keystream generation, and the
block-cipher half of CBC **decryption** — the cipher can be applied to
all blocks at once.  The state of ``n`` blocks is a ``(4, n) uint32``
array: row ``c`` holds column word ``c`` (big-endian, as ``w[i]`` in
FIPS-197) of every block, so each row is one contiguous array and the
per-round Python overhead is paid 10 times per batch, not per block.

Rounds 1-9 are the T-table rounds of :func:`repro.crypto.block.
cbc_encrypt_words` with the four byte lookups fused pairwise:
``T01[b0 << 8 | b1] == T0[b0] ^ T1[b1]`` and ``T23`` likewise
(:mod:`repro.crypto.sbox`), so one round is two ``np.take`` gathers
over the whole batch.  Their 16-bit indices come from masking the
state and merging each column with its ShiftRows neighbour; the last
round gathers S-box pairs through the same indices.  Decryption is the
FIPS-197 §5.3.5 equivalent inverse cipher: the same rounds over the
inverse tables, keyed by :attr:`ExpandedKey.dec_words`.

Each call allocates a few ``(4, n)`` temporaries, several times the
input size; callers with long inputs run it over bounded windows
(``modes.CTR_SEGMENT_BLOCKS`` blocks), which also keeps the working
set in cache.  Table lookups are not constant-time (docs/SECURITY.md).

The batch engine is cross-checked against the scalar one-block
oracles in ``tests/oracles.py`` and against FIPS-197 / SP 800-38A
vectors in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.keyschedule import ROUNDS, ExpandedKey
from repro.crypto.sbox import (
    INV_SBOX_PAIRS,
    INV_T01,
    INV_T23,
    SBOX_PAIRS,
    T01,
    T23,
)

__all__ = ["encrypt_blocks", "decrypt_blocks", "to_blocks", "from_blocks"]

#: Row order of the decryption state.  InvShiftRows pairs column ``c``
#: with column ``c - 1`` where ShiftRows pairs it with ``c + 1``;
#: storing column ``-i mod 4`` in row ``i`` turns the former into the
#: latter, so both directions run the same round code.  The order is
#: its own inverse.
_DEC_ROWS = np.array([0, 3, 2, 1])


def to_blocks(data: bytes | np.ndarray) -> np.ndarray:
    """View a 16-byte-aligned buffer as an ``(n, 16) uint8`` block array."""
    arr = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else np.asarray(data, dtype=np.uint8)
    if arr.size % 16 != 0:
        raise ValueError(f"buffer length {arr.size} is not a multiple of 16")
    return arr.reshape(-1, 16)


def from_blocks(blocks: np.ndarray) -> bytes:
    """Flatten an ``(n, 16)`` block array back to bytes."""
    return np.ascontiguousarray(blocks, dtype=np.uint8).tobytes()


def _columns(blocks: np.ndarray) -> np.ndarray:
    """``(n, 16) uint8`` blocks -> a new ``(4, n) uint32`` column-word state."""
    words = np.ascontiguousarray(blocks, dtype=np.uint8).reshape(-1, 16).view(">u4")
    return np.ascontiguousarray(words.T, dtype=np.uint32)


def _blocks(state: np.ndarray) -> np.ndarray:
    """``(4, n) uint32`` column words -> ``(n, 16) uint8`` blocks."""
    out = np.empty((state.shape[1], 4), dtype=">u4")
    out[...] = state.T
    return out.view(np.uint8).reshape(-1, 16)


def _rounds(
    state: np.ndarray,
    round_words: np.ndarray,
    t01: np.ndarray,
    t23: np.ndarray,
    sbox_pairs: np.ndarray,
) -> None:
    """Run the ten cipher rounds on a ``(4, n) uint32`` state in place.

    ``round_words`` is ``(11, 4, 1)``, one round key per round in the
    order the rounds use them, already in the state's row order.
    """
    state ^= round_words[0]
    pairs = np.empty_like(state)
    scratch = np.empty_like(state)
    gathered = np.empty_like(state)
    for r in range(1, ROUNDS + 1):
        # ShiftRows as two masks and a row-shifted OR: pairs[c] holds
        # bytes 0 and 2 of column c with bytes 1 and 3 of column c + 1,
        # so pairs[c] >> 16 is column c's T01 index and the low half of
        # pairs[c + 2] (b2 of c + 2, b3 of c + 3) its T23 index.
        np.bitwise_and(state, 0xFF00FF00, out=pairs)
        np.bitwise_and(state, 0x00FF00FF, out=scratch)
        pairs[:3] |= scratch[1:]
        pairs[3] |= scratch[0]
        np.right_shift(pairs, 16, out=scratch)
        pairs &= 0xFFFF
        # Indices are 16-bit by construction; mode="wrap" never wraps,
        # it only lets take() write into ``out`` unbuffered.
        if r < ROUNDS:
            t01.take(scratch, out=gathered, mode="wrap")
            t23.take(pairs, out=scratch, mode="wrap")
        else:
            sbox_pairs.take(scratch, out=gathered, mode="wrap")
            gathered <<= 16
            sbox_pairs.take(pairs, out=scratch, mode="wrap")
        np.bitwise_xor(gathered[:2], scratch[2:], out=state[:2])
        np.bitwise_xor(gathered[2:], scratch[:2], out=state[2:])
        state ^= round_words[r]


def encrypt_blocks(blocks: np.ndarray, key: ExpandedKey) -> np.ndarray:
    """ECB-encrypt an ``(n, 16) uint8`` array of blocks in one batch."""
    state = _columns(blocks)
    round_words = np.array(key.words, dtype=np.uint32).reshape(ROUNDS + 1, 4, 1)
    _rounds(state, round_words, T01, T23, SBOX_PAIRS)
    return _blocks(state)


def decrypt_blocks(blocks: np.ndarray, key: ExpandedKey) -> np.ndarray:
    """ECB-decrypt an ``(n, 16) uint8`` array of blocks in one batch."""
    state = _columns(blocks)[_DEC_ROWS]
    round_words = np.array(key.dec_words, dtype=np.uint32).reshape(ROUNDS + 1, 4, 1)
    _rounds(state, round_words[::-1, _DEC_ROWS], INV_T01, INV_T23, INV_SBOX_PAIRS)
    return _blocks(state[_DEC_ROWS])
