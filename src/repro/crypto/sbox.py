"""GF(2^8) arithmetic and the AES S-box, derived from first principles.

AES works in the field GF(2^8) with the reduction polynomial

    m(x) = x^8 + x^4 + x^3 + x + 1      (0x11B)

The S-box is *not* transcribed from the standard; it is constructed the
way FIPS-197 Section 5.1.1 defines it — multiplicative inverse in
GF(2^8) followed by the affine transform — so that the whole cipher is
auditable from this file alone.  ``tests/crypto/test_sbox.py`` checks
the derived tables against the published spot values.

The S-boxes, GF multiplication tables, T-tables and InvMixColumns
tables are Python tuples (fast scalar indexing for the single-block
path and the key schedule); the batched path reads the paired 16-bit
NumPy tables built from them at the end of this file.
"""

from __future__ import annotations

import numpy as np

#: AES reduction polynomial x^8 + x^4 + x^3 + x + 1.
REDUCTION_POLY = 0x11B


def gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) (carry-less, reduced mod 0x11B).

    This is the schoolbook shift-and-add ("Russian peasant")
    multiplication; it is only used at import time to build lookup
    tables, so clarity beats speed here.
    """
    result = 0
    a &= 0xFF
    b &= 0xFF
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= REDUCTION_POLY
        b >>= 1
    return result & 0xFF


def gf_pow(a: int, n: int) -> int:
    """Raise ``a`` to the ``n``-th power in GF(2^8)."""
    result = 1
    base = a
    while n:
        if n & 1:
            result = gf_mul(result, base)
        base = gf_mul(base, base)
        n >>= 1
    return result


def gf_inv(a: int) -> int:
    """Multiplicative inverse in GF(2^8); by convention inv(0) == 0.

    Uses Fermat's little theorem for GF(2^8): a^(2^8 - 2) = a^254 is
    the inverse of any nonzero ``a``.
    """
    if a == 0:
        return 0
    return gf_pow(a, 254)


def _affine(x: int) -> int:
    """The FIPS-197 affine transform applied after inversion.

    b'_i = b_i ^ b_{(i+4)%8} ^ b_{(i+5)%8} ^ b_{(i+6)%8} ^ b_{(i+7)%8} ^ c_i
    with c = 0x63.
    """
    result = 0
    for i in range(8):
        bit = (
            (x >> i)
            ^ (x >> ((i + 4) % 8))
            ^ (x >> ((i + 5) % 8))
            ^ (x >> ((i + 6) % 8))
            ^ (x >> ((i + 7) % 8))
            ^ (0x63 >> i)
        ) & 1
        result |= bit << i
    return result


def _build_sbox() -> tuple[tuple[int, ...], tuple[int, ...]]:
    sbox = [0] * 256
    inv_sbox = [0] * 256
    for x in range(256):
        s = _affine(gf_inv(x))
        sbox[x] = s
        inv_sbox[s] = x
    return tuple(sbox), tuple(inv_sbox)


#: Forward and inverse S-boxes as tuples (scalar path).
SBOX, INV_SBOX = _build_sbox()


def _mul_table(c: int) -> tuple[int, ...]:
    return tuple(gf_mul(c, x) for x in range(256))


#: GF multiplication tables used by MixColumns / InvMixColumns.
MUL2 = _mul_table(2)
MUL3 = _mul_table(3)
MUL9 = _mul_table(9)
MUL11 = _mul_table(11)
MUL13 = _mul_table(13)
MUL14 = _mul_table(14)


#: Round constants for the key schedule: rcon[i] = x^i in GF(2^8).
RCON = tuple(gf_pow(2, i) for i in range(10))


def _rot8(w: int) -> int:
    """Rotate a 32-bit word right by one byte."""
    return (w >> 8) | ((w & 0xFF) << 24)


def _build_t_tables() -> tuple[tuple[int, ...], ...]:
    """Build the four 32-bit encryption T-tables.

    T0[x] packs the MixColumns column produced by an S-boxed byte in
    row 0: (2·S[x], S[x], S[x], 3·S[x]) big-endian; T1..T3 are byte
    rotations of T0.  One AES round for an output column then collapses
    to four table lookups and four XORs (see ``block.cbc_encrypt_words``).
    """
    t0 = []
    for x in range(256):
        s = SBOX[x]
        word = (MUL2[s] << 24) | (s << 16) | (s << 8) | MUL3[s]
        t0.append(word)
    t0 = tuple(t0)
    t1 = tuple(_rot8(w) for w in t0)
    t2 = tuple(_rot8(w) for w in t1)
    t3 = tuple(_rot8(w) for w in t2)
    return t0, t1, t2, t3


T0, T1, T2, T3 = _build_t_tables()


def _build_inv_mix_tables() -> tuple[tuple[int, ...], ...]:
    """InvMixColumns as four 32-bit word tables.

    IMC0[b] packs the InvMixColumns column produced by byte ``b`` in
    row 0: (14·b, 9·b, 13·b, 11·b) big-endian; IMC1..IMC3 are its byte
    rotations, so InvMixColumns of column word (b0, b1, b2, b3) is
    ``IMC0[b0] ^ IMC1[b1] ^ IMC2[b2] ^ IMC3[b3]``.
    """
    m0 = tuple(
        (MUL14[b] << 24) | (MUL9[b] << 16) | (MUL13[b] << 8) | MUL11[b]
        for b in range(256)
    )
    m1 = tuple(_rot8(w) for w in m0)
    m2 = tuple(_rot8(w) for w in m1)
    m3 = tuple(_rot8(w) for w in m2)
    return m0, m1, m2, m3


#: InvMixColumns word tables: the decryption round keys of the key
#: schedule and the inverse T-tables of the batched engine derive from
#: them.
IMC0, IMC1, IMC2, IMC3 = _build_inv_mix_tables()


def _pair_table(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Fuse two byte tables: ``out[a << 8 | b] == hi[a] ^ lo[b]``."""
    return (hi[:, None] ^ lo[None, :]).reshape(-1)


def _build_pair_tables() -> tuple[np.ndarray, ...]:
    """Build the batched engine's paired 16-bit tables (uint32 each).

    ``T01``/``T23`` fuse the encryption T-tables pairwise; ``INV_T01``/
    ``INV_T23`` do the same for the inverse T-tables of the FIPS-197
    §5.3.5 equivalent inverse cipher, ``ITr[x] == IMCr[S⁻¹[x]]``.
    ``SBOX_PAIRS[a << 8 | b] == S[a] << 8 | S[b]`` (and its inverse)
    serve the last round, which has no (Inv)MixColumns.
    """
    inv = np.array(INV_SBOX, dtype=np.intp)
    t = np.array((T0, T1, T2, T3), dtype=np.uint32)
    it = np.array((IMC0, IMC1, IMC2, IMC3), dtype=np.uint32)[:, inv]
    s = np.array(SBOX, dtype=np.uint32)
    inv_s = inv.astype(np.uint32)
    return (
        _pair_table(t[0], t[1]),
        _pair_table(t[2], t[3]),
        _pair_table(it[0], it[1]),
        _pair_table(it[2], it[3]),
        _pair_table(s << 8, s),
        _pair_table(inv_s << 8, inv_s),
    )


#: Paired tables of the batched engine, 65,536 uint32 (256 KiB) each.
T01, T23, INV_T01, INV_T23, SBOX_PAIRS, INV_SBOX_PAIRS = _build_pair_tables()
