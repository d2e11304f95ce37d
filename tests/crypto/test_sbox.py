"""The GF(2^8) machinery and derived tables against FIPS-197 values."""

import numpy as np
import pytest

from repro.crypto import sbox
from tests.oracles import INV_SHIFT_ROWS, SHIFT_ROWS


def _inv_t(row: int, x: int) -> int:
    """Inverse T-table IT<row>[x] from first principles: the
    InvMixColumns column (14, 9, 13, 11) of INV_SBOX[x], rotated right
    one byte per row."""
    s = sbox.INV_SBOX[x]
    w = (
        (sbox.gf_mul(14, s) << 24) | (sbox.gf_mul(9, s) << 16)
        | (sbox.gf_mul(13, s) << 8) | sbox.gf_mul(11, s)
    )
    for _ in range(row):
        w = (w >> 8) | ((w & 0xFF) << 24)
    return w


class TestGFArithmetic:
    def test_mul_identity(self):
        for a in (0, 1, 0x53, 0xFF):
            assert sbox.gf_mul(a, 1) == a

    def test_mul_zero(self):
        for a in (0, 1, 0x53, 0xFF):
            assert sbox.gf_mul(a, 0) == 0

    def test_mul_commutative(self):
        for a in range(0, 256, 17):
            for b in range(0, 256, 23):
                assert sbox.gf_mul(a, b) == sbox.gf_mul(b, a)

    def test_mul_fips_example(self):
        # FIPS-197 Sec. 4.2: {57} x {83} = {c1}
        assert sbox.gf_mul(0x57, 0x83) == 0xC1

    def test_mul_xtime_chain(self):
        # FIPS-197 Sec. 4.2.1: {57}·{02} = {ae}, ·{04} = {47}, ·{08} = {8e}
        assert sbox.gf_mul(0x57, 0x02) == 0xAE
        assert sbox.gf_mul(0x57, 0x04) == 0x47
        assert sbox.gf_mul(0x57, 0x08) == 0x8E
        assert sbox.gf_mul(0x57, 0x13) == 0xFE

    def test_distributive(self):
        for a, b, c in [(0x57, 0x83, 0x1B), (0xCA, 0x01, 0xFE)]:
            assert sbox.gf_mul(a, b ^ c) == sbox.gf_mul(a, b) ^ sbox.gf_mul(a, c)

    def test_inverse(self):
        for a in range(1, 256):
            assert sbox.gf_mul(a, sbox.gf_inv(a)) == 1

    def test_inverse_of_zero_is_zero(self):
        assert sbox.gf_inv(0) == 0

    def test_pow_matches_repeated_mul(self):
        acc = 1
        for n in range(8):
            assert sbox.gf_pow(0x03, n) == acc
            acc = sbox.gf_mul(acc, 0x03)


class TestSbox:
    def test_known_values(self):
        # FIPS-197 Fig. 7 spot checks.
        assert sbox.SBOX[0x00] == 0x63
        assert sbox.SBOX[0x01] == 0x7C
        assert sbox.SBOX[0x53] == 0xED
        assert sbox.SBOX[0xFF] == 0x16

    def test_is_permutation(self):
        assert sorted(sbox.SBOX) == list(range(256))

    def test_inverse_sbox(self):
        for x in range(256):
            assert sbox.INV_SBOX[sbox.SBOX[x]] == x

    def test_no_fixed_points(self):
        # AES S-box has no fixed points and no anti-fixed points.
        for x in range(256):
            assert sbox.SBOX[x] != x
            assert sbox.SBOX[x] != x ^ 0xFF


class TestDerivedTables:
    def test_mul_tables(self):
        for c, table in [(2, sbox.MUL2), (3, sbox.MUL3), (9, sbox.MUL9),
                         (11, sbox.MUL11), (13, sbox.MUL13), (14, sbox.MUL14)]:
            for x in (0, 1, 0x57, 0x80, 0xFF):
                assert int(table[x]) == sbox.gf_mul(c, x)

    def test_rcon(self):
        assert sbox.RCON[:8] == (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80)
        assert sbox.RCON[8] == 0x1B
        assert sbox.RCON[9] == 0x36

    def test_t_tables_consistent(self):
        # T1..T3 are byte rotations of T0.
        for x in (0, 1, 0xAB, 0xFF):
            w = sbox.T0[x]
            rot = ((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF
            assert sbox.T1[x] == rot

    def test_t0_structure(self):
        s = sbox.SBOX[0x42]
        expected = (
            (sbox.gf_mul(2, s) << 24) | (s << 16) | (s << 8) | sbox.gf_mul(3, s)
        )
        assert sbox.T0[0x42] == expected

    @pytest.mark.parametrize("a,b", [(0, 0), (0x42, 0x17), (0xFF, 0x01), (0x80, 0xFE)])
    def test_paired_tables(self, a, b):
        # The batched engine's 16-bit tables fuse two byte lookups.
        i = a << 8 | b
        assert sbox.T01[i] == sbox.T0[a] ^ sbox.T1[b]
        assert sbox.T23[i] == sbox.T2[a] ^ sbox.T3[b]
        assert sbox.INV_T01[i] == _inv_t(0, a) ^ _inv_t(1, b)
        assert sbox.INV_T23[i] == _inv_t(2, a) ^ _inv_t(3, b)
        assert sbox.SBOX_PAIRS[i] == sbox.SBOX[a] << 8 | sbox.SBOX[b]
        assert sbox.INV_SBOX_PAIRS[i] == sbox.INV_SBOX[a] << 8 | sbox.INV_SBOX[b]

    def test_paired_table_layout(self):
        for table in (sbox.T01, sbox.T23, sbox.INV_T01, sbox.INV_T23,
                      sbox.SBOX_PAIRS, sbox.INV_SBOX_PAIRS):
            assert table.shape == (1 << 16,)
            assert table.dtype == np.uint32

    def test_shift_rows_permutation(self):
        assert sorted(SHIFT_ROWS) == list(range(16))
        # Row 0 is untouched: flat indices 0,4,8,12 map to themselves.
        for c in range(4):
            assert SHIFT_ROWS[4 * c] == 4 * c

    def test_inv_shift_rows_inverts(self):
        for i in range(16):
            assert INV_SHIFT_ROWS[SHIFT_ROWS[i]] == i

    def test_shift_rows_row1(self):
        # Row 1 shifts left by one column: out[1 + 4c] = in[1 + 4(c+1 mod 4)]
        for c in range(4):
            assert SHIFT_ROWS[1 + 4 * c] == 1 + 4 * ((c + 1) % 4)
