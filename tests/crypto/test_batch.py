"""Batched ECB engine: known answers and equivalence with the scalar cipher."""

import numpy as np
import pytest

from repro.crypto import batch
from repro.crypto.keyschedule import expand_key
from tests.oracles import decrypt_block, encrypt_block

EK = expand_key(b"0123456789abcdef")

#: SP 800-38A F.1.1 / F.1.2 (ECB-AES128), all four blocks.
ECB_KEY = expand_key(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
ECB_PLAIN = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
ECB_CIPHER = bytes.fromhex(
    "3ad77bb40d7a3660a89ecaf32466ef97"
    "f5d3d58503b9699de785895a96fdbaaf"
    "43b1cd7f598ece23881b00e3ed030688"
    "7b0c785e27e8ad3f8223207104725dd4"
)


class TestBlockView:
    def test_to_blocks_shape(self):
        blocks = batch.to_blocks(bytes(64))
        assert blocks.shape == (4, 16)
        assert blocks.dtype == np.uint8

    def test_to_blocks_rejects_misaligned(self):
        with pytest.raises(ValueError, match="multiple of 16"):
            batch.to_blocks(bytes(17))

    def test_from_blocks_roundtrip(self):
        data = bytes(range(48))
        assert batch.from_blocks(batch.to_blocks(data)) == data


class TestBatchEquivalence:
    def test_encrypt_matches_scalar(self):
        rng = np.random.default_rng(7)
        raw = rng.integers(0, 256, size=(32, 16), dtype=np.uint8)
        enc = batch.encrypt_blocks(raw, EK)
        for i in range(raw.shape[0]):
            assert enc[i].tobytes() == encrypt_block(raw[i].tobytes(), EK)

    def test_decrypt_matches_scalar(self):
        rng = np.random.default_rng(8)
        raw = rng.integers(0, 256, size=(32, 16), dtype=np.uint8)
        dec = batch.decrypt_blocks(raw, EK)
        for i in range(raw.shape[0]):
            assert dec[i].tobytes() == decrypt_block(raw[i].tobytes(), EK)

    def test_roundtrip_large_batch(self):
        rng = np.random.default_rng(9)
        raw = rng.integers(0, 256, size=(1000, 16), dtype=np.uint8)
        assert np.array_equal(
            batch.decrypt_blocks(batch.encrypt_blocks(raw, EK), EK), raw
        )

    def test_single_block_batch(self):
        pt = np.frombuffer(bytes(range(16)), dtype=np.uint8).reshape(1, 16)
        enc = batch.encrypt_blocks(pt, EK)
        assert enc[0].tobytes() == encrypt_block(bytes(range(16)), EK)

    def test_fips_vector_through_batch(self):
        ek = expand_key(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        pt = batch.to_blocks(bytes.fromhex("00112233445566778899aabbccddeeff"))
        enc = batch.encrypt_blocks(pt, ek)
        assert enc.tobytes().hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_fips_c1_decrypt_through_batch(self):
        ek = expand_key(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        ct = batch.to_blocks(bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a"))
        dec = batch.decrypt_blocks(ct, ek)
        assert dec.tobytes().hex() == "00112233445566778899aabbccddeeff"

    def test_sp800_38a_f11_ecb_encrypt(self):
        enc = batch.encrypt_blocks(batch.to_blocks(ECB_PLAIN), ECB_KEY)
        assert batch.from_blocks(enc) == ECB_CIPHER

    def test_sp800_38a_f12_ecb_decrypt(self):
        dec = batch.decrypt_blocks(batch.to_blocks(ECB_CIPHER), ECB_KEY)
        assert batch.from_blocks(dec) == ECB_PLAIN

    def test_input_not_mutated(self):
        raw = np.zeros((4, 16), dtype=np.uint8)
        before = raw.copy()
        batch.encrypt_blocks(raw, EK)
        assert np.array_equal(raw, before)

    def test_zero_block_batch(self):
        empty = np.empty((0, 16), dtype=np.uint8)
        enc = batch.encrypt_blocks(empty, EK)
        assert enc.shape == (0, 16) and enc.dtype == np.uint8
        dec = batch.decrypt_blocks(empty, EK)
        assert dec.shape == (0, 16) and dec.dtype == np.uint8
        assert batch.from_blocks(enc) == b""
        assert batch.to_blocks(b"").shape == (0, 16)
