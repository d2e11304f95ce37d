"""Key expansion against FIPS-197 Appendix A.1."""

import pytest

from repro.crypto.keyschedule import ExpandedKey, expand_key
from repro.crypto.sbox import gf_mul

FIPS_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
#: The InvMixColumns matrix of FIPS-197 §5.3.3, row by row.
INV_MIX_MATRIX = ((14, 11, 13, 9), (9, 14, 11, 13), (13, 9, 14, 11), (11, 13, 9, 14))


class TestExpandKey:
    def test_first_words_are_key(self):
        ek = expand_key(FIPS_KEY)
        assert ek.words[0] == 0x2B7E1516
        assert ek.words[1] == 0x28AED2A6
        assert ek.words[2] == 0xABF71588
        assert ek.words[3] == 0x09CF4F3C

    def test_fips_a1_expansion(self):
        # FIPS-197 Appendix A.1 w[i] values.
        ek = expand_key(FIPS_KEY)
        assert ek.words[4] == 0xA0FAFE17
        assert ek.words[5] == 0x88542CB1
        assert ek.words[9] == 0x7A96B943
        assert ek.words[10] == 0x5935807A
        assert ek.words[20] == 0xD4D1C6F8
        assert ek.words[40] == 0xD014F9A8
        assert ek.words[43] == 0xB6630CA6

    def test_word_count(self):
        assert len(expand_key(FIPS_KEY).words) == 44

    def test_dec_words_are_inv_mix_columns_of_round_keys(self):
        # FIPS-197 5.3.5: dw equals w for round keys 0 and 10 and
        # InvMixColumns(w) for rounds 1-9, computed here from gf_mul.
        ek = expand_key(FIPS_KEY)
        assert len(ek.dec_words) == 44
        for i, (w, dw) in enumerate(zip(ek.words, ek.dec_words)):
            expected = w
            if 4 <= i < 40:
                b = w.to_bytes(4, "big")
                expected = int.from_bytes(bytes(
                    gf_mul(m[0], b[0]) ^ gf_mul(m[1], b[1])
                    ^ gf_mul(m[2], b[2]) ^ gf_mul(m[3], b[3])
                    for m in INV_MIX_MATRIX
                ), "big")
            assert dw == expected, i

    def test_rejects_bad_key_length(self):
        with pytest.raises(ValueError, match="16-byte"):
            expand_key(b"short")
        with pytest.raises(ValueError, match="16-byte"):
            expand_key(bytes(24))

    def test_distinct_keys_distinct_schedules(self):
        a = expand_key(bytes(16))
        b = expand_key(bytes(15) + b"\x01")
        assert a.words != b.words

    def test_expanded_key_validates_word_count(self):
        with pytest.raises(ValueError, match="44"):
            ExpandedKey(words=(0,) * 10)
