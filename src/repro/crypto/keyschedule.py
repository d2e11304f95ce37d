"""FIPS-197 key expansion for AES-128.

The 16-byte cipher key is expanded to 44 32-bit words (11 round keys).
The schedule is exposed in two forms so every execution engine can
consume it without re-deriving anything:

* ``words``      — 44 ints, the raw FIPS-197 ``w[i]`` array; round key
  ``r`` is ``words[4r:4r+4]``,
* ``dec_words``  — 44 ints, the FIPS-197 §5.3.5 ``dw[i]`` array of the
  equivalent inverse cipher (batched decryption).

No field appears in ``repr``: words 0-3 *are* the cipher key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.sbox import IMC0, IMC1, IMC2, IMC3, RCON, SBOX

__all__ = ["ExpandedKey", "expand_key"]

KEY_BYTES = 16
ROUNDS = 10
WORDS = 4 * (ROUNDS + 1)


def _sub_word(w: int) -> int:
    return (
        (SBOX[(w >> 24) & 0xFF] << 24)
        | (SBOX[(w >> 16) & 0xFF] << 16)
        | (SBOX[(w >> 8) & 0xFF] << 8)
        | SBOX[w & 0xFF]
    )


def _rot_word(w: int) -> int:
    return ((w << 8) | (w >> 24)) & 0xFFFFFFFF


def _inv_mix_word(w: int) -> int:
    """InvMixColumns (FIPS-197 §5.3.3) of one column word."""
    return IMC0[w >> 24] ^ IMC1[(w >> 16) & 0xFF] ^ IMC2[(w >> 8) & 0xFF] ^ IMC3[w & 0xFF]


@dataclass(frozen=True)
class ExpandedKey:
    """An AES-128 key schedule in all the layouts the engines need."""

    words: tuple[int, ...] = field(repr=False)
    dec_words: tuple[int, ...] = field(repr=False, default=())

    def __post_init__(self) -> None:
        if len(self.words) != WORDS:
            raise ValueError(f"expected {WORDS} schedule words, got {len(self.words)}")
        if not self.dec_words:
            # dw = w for the first and last round keys; rounds 1-9 get
            # InvMixColumns so the inverse rounds keep the T-table shape.
            inner = tuple(_inv_mix_word(w) for w in self.words[4 : WORDS - 4])
            object.__setattr__(
                self, "dec_words", self.words[:4] + inner + self.words[WORDS - 4 :]
            )


def expand_key(key: bytes) -> ExpandedKey:
    """Expand a 16-byte AES-128 key per FIPS-197 Section 5.2.

    Raises
    ------
    ValueError
        If ``key`` is not exactly 16 bytes.
    """
    if len(key) != KEY_BYTES:
        raise ValueError(f"AES-128 requires a 16-byte key, got {len(key)} bytes")
    w = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(4)]
    for i in range(4, WORDS):
        temp = w[i - 1]
        if i % 4 == 0:
            temp = _sub_word(_rot_word(temp)) ^ (RCON[i // 4 - 1] << 24)
        w.append(w[i - 4] ^ temp)
    return ExpandedKey(words=tuple(w))
