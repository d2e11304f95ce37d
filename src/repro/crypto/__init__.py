"""From-scratch AES-128 substrate used by the secure-compression schemes.

The paper encrypts with AES-128 in CBC mode ("light-weight cryptography
... AES-128 Cipher Block Chaining (CBC) mode", Section V-A).  No binary
crypto library is assumed; everything here is implemented from the
FIPS-197 / SP 800-38A specifications and validated against the published
test vectors in ``tests/crypto``.

Layout
------
``sbox``
    GF(2^8) arithmetic, the S-box and its inverse, the multiplication
    tables and T-tables (all *derived*, not transcribed, so the
    construction is auditable), and the paired 16-bit tables of the
    batched engine.
``keyschedule``
    FIPS-197 key expansion for AES-128, plus the InvMixColumns'd round
    keys of the equivalent inverse cipher (FIPS-197 §5.3.5).
``block``
    The scalar CBC chain kernel on T-tables (CBC encryption, which
    must run block by block).
``batch``
    NumPy-vectorized ECB engine on ``(4, n) uint32`` column words: each
    round is two gathers from paired 16-bit T-tables over the whole
    batch — the HPC path used by CBC-decrypt and CTR, where blocks are
    independent.  Neither engine is constant-time.
``modes``
    CBC and CTR modes with PKCS#7 padding.  CBC encryption is
    inherently sequential (each block chains on the previous
    ciphertext), CBC decryption and CTR are batched; both run the
    engine over bounded windows of ``CTR_SEGMENT_BLOCKS`` blocks.
``rng``
    IV generation (OS entropy, or deterministic for reproducible runs).
``aes``
    The :class:`~repro.crypto.aes.AES128` façade the rest of the
    library uses, and :class:`~repro.crypto.aes.OneShotCTR`, the view
    that lets one container's CTR nonce encrypt exactly once.
"""

from repro.crypto.aes import AES128, EncryptionResult, OneShotCTR
from repro.crypto.modes import (
    CTR_SEGMENT_BLOCKS,
    cbc_decrypt,
    cbc_encrypt,
    ctr_keystream,
    ctr_xcrypt,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.crypto.rng import generate_iv

__all__ = [
    "AES128",
    "CTR_SEGMENT_BLOCKS",
    "EncryptionResult",
    "OneShotCTR",
    "cbc_encrypt",
    "cbc_decrypt",
    "ctr_keystream",
    "ctr_xcrypt",
    "pkcs7_pad",
    "pkcs7_unpad",
    "generate_iv",
]
