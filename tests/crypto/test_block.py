"""Single-block cipher against FIPS-197 appendices."""

import pytest

from repro.crypto.keyschedule import expand_key
from tests.oracles import decrypt_block, encrypt_block


class TestFipsVectors:
    def test_appendix_b(self):
        ek = expand_key(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        ct = encrypt_block(pt, ek)
        assert ct.hex() == "3925841d02dc09fbdc118597196a0b32"

    def test_appendix_c1(self):
        ek = expand_key(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        ct = encrypt_block(pt, ek)
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_appendix_c1_decrypt(self):
        ek = expand_key(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        ct = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert decrypt_block(ct, ek).hex() == "00112233445566778899aabbccddeeff"


class TestRoundTrip:
    def test_roundtrip_various_blocks(self):
        ek = expand_key(b"0123456789abcdef")
        for seed in range(20):
            block = bytes((seed * 13 + i * 7) % 256 for i in range(16))
            assert decrypt_block(encrypt_block(block, ek), ek) == block

    def test_all_zero_and_all_ones(self):
        ek = expand_key(bytes(16))
        for block in (bytes(16), bytes([0xFF] * 16)):
            ct = encrypt_block(block, ek)
            assert ct != block  # cipher must not be identity
            assert decrypt_block(ct, ek) == block

    def test_different_keys_differ(self):
        pt = bytes(range(16))
        c1 = encrypt_block(pt, expand_key(bytes(16)))
        c2 = encrypt_block(pt, expand_key(bytes(15) + b"\x01"))
        assert c1 != c2

    def test_avalanche_plaintext(self):
        # Flipping one plaintext bit should change about half the
        # ciphertext bits (allow a generous band).
        ek = expand_key(b"0123456789abcdef")
        pt = bytes(range(16))
        pt2 = bytes([pt[0] ^ 0x01]) + pt[1:]
        c1 = int.from_bytes(encrypt_block(pt, ek), "big")
        c2 = int.from_bytes(encrypt_block(pt2, ek), "big")
        flipped = bin(c1 ^ c2).count("1")
        assert 35 <= flipped <= 93


class TestValidation:
    def test_rejects_short_block(self):
        ek = expand_key(bytes(16))
        with pytest.raises(ValueError, match="16 bytes"):
            encrypt_block(b"short", ek)
        with pytest.raises(ValueError, match="16 bytes"):
            decrypt_block(b"short", ek)
