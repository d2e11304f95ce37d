"""Cipher modes of operation: CBC (paper's choice) and CTR, plus PKCS#7.

The paper's Algorithm 1 is textbook CBC:

    M_0 = IV xor B_0;  M_i = Cipher_{i-1} xor B_i;  Cipher_i = E_k(M_i)

* **CBC encryption** chains each block on the previous ciphertext, so
  it is inherently sequential and runs on the scalar T-table chain
  kernel, in ``CTR_SEGMENT_BLOCKS``-block windows of plaintext words.
* **CBC decryption** applies the block cipher to every ciphertext block
  *independently* (the chaining is only an XOR afterwards), so it runs
  on the batched engine, in ``CTR_SEGMENT_BLOCKS``-block windows:
  P_i = D_k(C_i) xor C_{i-1}.
* **CTR** is embarrassingly parallel in both directions and is the
  recommended throughput mode: the keystream depends only on
  ``(key, nonce, counter)``, so it is generated in bounded **segments**
  on the batched engine (peak temporary allocation stays at
  ``CTR_SEGMENT_BLOCKS`` blocks regardless of stream length).  Each
  call makes exactly ``ceil(n / 16)`` blocks for its ``n``-byte input,
  at the moment it encrypts or decrypts.

Counter layout: each CTR input block is ``nonce (8 bytes) || counter
(8-byte big-endian)``, counting up from 0.  A segment starting at block
``i`` simply passes ``initial=i``; segmentation never changes bytes.
"""

from __future__ import annotations

import hmac

import numpy as np

from repro.core import trace
from repro.crypto import batch
from repro.crypto.block import BLOCK_BYTES, cbc_encrypt_words
from repro.crypto.keyschedule import ExpandedKey

__all__ = [
    "CTR_SEGMENT_BLOCKS",
    "pkcs7_pad",
    "pkcs7_unpad",
    "cbc_encrypt",
    "cbc_decrypt",
    "ctr_keystream",
    "ctr_xcrypt",
]

#: Blocks per batched engine call (8192 blocks = 128 KiB), for the CTR
#: keystream and the CBC decrypt windows alike.  Bounds the engine's
#: temporaries (a few (4, n) uint32 arrays per call) and keeps its
#: working set in cache.  CBC encryption walks windows of the same
#: size, which bounds its per-window lists of Python ints.
CTR_SEGMENT_BLOCKS = 8192

#: The counter field is 64 bits; ``initial + n_blocks`` past this wraps
#: back to counter 0 and would reuse keystream.
_COUNTER_SPACE = 1 << 64


def pkcs7_pad(data: bytes) -> bytes:
    """Pad to a multiple of 16 bytes (RFC 5652); always adds 1-16 bytes."""
    pad_len = BLOCK_BYTES - (len(data) % BLOCK_BYTES)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes) -> bytes:
    """Strip PKCS#7 padding, validating every padding byte.

    Raises
    ------
    ValueError
        If the buffer is empty, misaligned, or the padding is malformed
        (the classic padding-oracle checks).
    """
    if not data or len(data) % BLOCK_BYTES != 0:
        raise ValueError("padded data must be a positive multiple of 16 bytes")
    pad_len = data[-1]
    if pad_len < 1 or pad_len > BLOCK_BYTES:
        raise ValueError(f"invalid PKCS#7 padding length {pad_len}")
    # Constant-shape check: always compare the full 16-byte tail (the
    # non-padding prefix is compared against itself) instead of slicing
    # ``pad_len`` bytes, so neither the compared width nor an early
    # exit depends on the padding byte values.
    tail = data[-BLOCK_BYTES:]
    expected = tail[: BLOCK_BYTES - pad_len] + bytes([pad_len]) * pad_len
    if not hmac.compare_digest(tail, expected):
        raise ValueError("corrupt PKCS#7 padding")
    return data[:-pad_len]


def cbc_encrypt(plaintext: bytes, key: ExpandedKey, iv: bytes) -> bytes:
    """AES-128-CBC encrypt with PKCS#7 padding (sequential by design).

    The chain kernel :func:`~repro.crypto.block.cbc_encrypt_words` runs
    over ``CTR_SEGMENT_BLOCKS``-block windows of big-endian plaintext
    words, each window chained on the last ciphertext block of the one
    before.  Only the final block is padded (the whole blocks are read
    in place), so the peak stays near twice the plaintext whatever its
    length.
    """
    if len(iv) != BLOCK_BYTES:
        raise ValueError(f"IV must be 16 bytes, got {len(iv)}")
    n_full = len(plaintext) // BLOCK_BYTES
    last = np.frombuffer(
        pkcs7_pad(plaintext[n_full * BLOCK_BYTES :]), dtype=">u4"
    ).tolist()
    n_blocks = n_full + 1
    trace.count("aes.blocks_encrypted", n_blocks)
    words = np.frombuffer(plaintext, dtype=">u4", count=4 * n_full)
    parts = []
    chain = iv
    for start in range(0, n_blocks, CTR_SEGMENT_BLOCKS):
        stop = start + CTR_SEGMENT_BLOCKS
        window = words[4 * start : 4 * stop].tolist()
        if stop >= n_blocks:
            window += last
        parts.append(cbc_encrypt_words(window, key, chain))
        chain = parts[-1][-BLOCK_BYTES:]
    return b"".join(parts)


def cbc_decrypt(ciphertext: bytes, key: ExpandedKey, iv: bytes) -> bytes:
    """AES-128-CBC decrypt (batched) and strip PKCS#7 padding.

    The engine runs over ``CTR_SEGMENT_BLOCKS``-block windows, so its
    temporaries stay bounded whatever the ciphertext length; the chain
    XOR reads C_{i-1} straight from the ciphertext, so windowing never
    changes bytes.
    """
    if len(iv) != BLOCK_BYTES:
        raise ValueError(f"IV must be 16 bytes, got {len(iv)}")
    if not ciphertext or len(ciphertext) % BLOCK_BYTES != 0:
        raise ValueError("ciphertext must be a positive multiple of 16 bytes")
    blocks = batch.to_blocks(ciphertext)
    n_blocks = blocks.shape[0]
    trace.count("aes.blocks_decrypted", n_blocks)
    plain = np.empty_like(blocks)
    for start in range(0, n_blocks, CTR_SEGMENT_BLOCKS):
        stop = min(start + CTR_SEGMENT_BLOCKS, n_blocks)
        plain[start:stop] = batch.decrypt_blocks(blocks[start:stop], key)
    # P_i = D(C_i) xor C_{i-1}; block 0 XORs the IV.
    plain[0] ^= np.frombuffer(iv, dtype=np.uint8)
    plain[1:] ^= blocks[:-1]
    padded = batch.from_blocks(plain)
    del plain  # unpad copies once more; peak stays ~2x the ciphertext
    return pkcs7_unpad(padded)


def _check_counter_range(initial: int, n_blocks: int) -> None:
    """Reject counter ranges that would wrap the 64-bit counter field.

    Wrapping back to counter 0 re-emits the start of the stream —
    keystream reuse under the same (key, nonce) — so it is an error,
    not a modular feature.
    """
    if initial < 0:
        raise ValueError(f"CTR counter offset must be >= 0, got {initial}")
    if initial + n_blocks > _COUNTER_SPACE:
        raise ValueError(
            f"CTR counter overflow: initial={initial} + {n_blocks} blocks "
            f"exceeds the 64-bit counter space"
        )


def _counter_blocks(nonce: bytes, n_blocks: int, initial: int = 0) -> np.ndarray:
    """Build CTR input blocks: 8-byte nonce || 8-byte big-endian counter.

    ``initial`` offsets the counter, so a caller can build any window
    of the stream: ``_counter_blocks(nonce, k, i)`` is exactly rows
    ``[i, i+k)`` of the monolithic block sequence.
    """
    if len(nonce) != 8:
        raise ValueError(f"CTR nonce must be 8 bytes, got {len(nonce)}")
    _check_counter_range(initial, n_blocks)
    # Add a uint64 scalar to a 0-based arange rather than
    # arange(initial, initial + n_blocks): the latter's stop value hits
    # 2**64 (unrepresentable) for windows ending at the counter-space
    # edge, which the guard above deliberately allows.
    counters = (
        np.uint64(initial) + np.arange(n_blocks, dtype=np.uint64)
    ).astype(">u8")
    blocks = np.empty((n_blocks, BLOCK_BYTES), dtype=np.uint8)
    blocks[:, :8] = np.frombuffer(nonce, dtype=np.uint8)
    blocks[:, 8:] = counters.view(np.uint8).reshape(n_blocks, 8)
    return blocks


def ctr_keystream(
    key: ExpandedKey,
    nonce: bytes,
    n_bytes: int,
    initial: int = 0,
    *,
    segment_blocks: int = CTR_SEGMENT_BLOCKS,
) -> np.ndarray:
    """Generate ``n_bytes`` of CTR keystream starting at block ``initial``.

    Generation is segmented: at most ``segment_blocks`` counter blocks
    are materialized and batch-encrypted per call into a preallocated
    output, so peak temporary memory is bounded by the segment size
    rather than the stream length.  Segmentation is invisible in the
    output — any (``n_bytes``, ``segment_blocks``) choice yields bytes
    identical to the monolithic stream, and
    ``ctr_keystream(k, n, a + b)`` equals the concatenation of
    ``ctr_keystream(k, n, a)`` and
    ``ctr_keystream(k, n, b, initial=ceil(a / 16))`` when ``a`` is
    block-aligned.
    """
    if segment_blocks < 1:
        raise ValueError(f"segment_blocks must be >= 1, got {segment_blocks}")
    n_blocks = (n_bytes + BLOCK_BYTES - 1) // BLOCK_BYTES
    # Validate the whole range up front so a multi-segment stream never
    # partially emits before hitting the wrap guard.
    _check_counter_range(initial, n_blocks)
    out = np.empty(n_bytes, dtype=np.uint8)
    n_segments = 0
    for seg_start in range(0, n_blocks, segment_blocks):
        seg_blocks = min(segment_blocks, n_blocks - seg_start)
        stream = batch.encrypt_blocks(
            _counter_blocks(nonce, seg_blocks, initial + seg_start), key
        ).reshape(-1)
        off = seg_start * BLOCK_BYTES
        take = min(n_bytes - off, seg_blocks * BLOCK_BYTES)
        out[off : off + take] = stream[:take]
        n_segments += 1
    trace.count_many(
        {"aes.blocks_keystream": n_blocks,
         "aes.keystream_segments": n_segments}
    )
    return out


def ctr_xcrypt(
    data: bytes, key: ExpandedKey, nonce: bytes, initial: int = 0
) -> bytes:
    """CTR encrypt/decrypt (the operation is its own inverse).

    The XOR lands in the keystream buffer itself, so the peak stays at
    the keystream plus the returned bytes: about twice the input.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    ks = ctr_keystream(key, nonce, buf.size, initial)
    np.bitwise_xor(buf, ks, out=ks)
    return ks.tobytes()
