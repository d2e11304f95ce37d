"""Property-based tests for the crypto substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import batch, modes
from repro.crypto.keyschedule import expand_key
from tests.oracles import decrypt_block, encrypt_block

keys = st.binary(min_size=16, max_size=16)
blocks16 = st.binary(min_size=16, max_size=16)
payloads = st.binary(min_size=0, max_size=512)
ivs = st.binary(min_size=16, max_size=16)
nonces = st.binary(min_size=8, max_size=8)


@given(key=keys, block=blocks16)
@settings(max_examples=50, deadline=None)
def test_block_roundtrip(key, block):
    ek = expand_key(key)
    assert decrypt_block(encrypt_block(block, ek), ek) == block


@given(key=keys, data=payloads, iv=ivs)
@settings(max_examples=50, deadline=None)
def test_cbc_roundtrip(key, data, iv):
    ek = expand_key(key)
    assert modes.cbc_decrypt(modes.cbc_encrypt(data, ek, iv), ek, iv) == data


@given(key=keys, data=payloads, nonce=nonces)
@settings(max_examples=50, deadline=None)
def test_ctr_involution(key, data, nonce):
    ek = expand_key(key)
    assert modes.ctr_xcrypt(modes.ctr_xcrypt(data, ek, nonce), ek, nonce) == data


@given(data=payloads)
@settings(max_examples=100, deadline=None)
def test_pkcs7_roundtrip(data):
    assert modes.pkcs7_unpad(modes.pkcs7_pad(data)) == data


@given(data=payloads)
@settings(max_examples=50, deadline=None)
def test_pkcs7_alignment(data):
    padded = modes.pkcs7_pad(data)
    assert len(padded) % 16 == 0
    assert 1 <= padded[-1] <= 16


@given(key=keys, seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64))
@settings(max_examples=25, deadline=None)
def test_batch_scalar_agreement(key, seed, n):
    ek = expand_key(key)
    raw = np.random.default_rng(seed).integers(0, 256, size=(n, 16),
                                               dtype=np.uint8)
    enc = batch.encrypt_blocks(raw, ek)
    dec = batch.decrypt_blocks(raw, ek)
    for i in range(n):
        assert enc[i].tobytes() == encrypt_block(raw[i].tobytes(), ek)
        assert dec[i].tobytes() == decrypt_block(raw[i].tobytes(), ek)
    assert np.array_equal(batch.decrypt_blocks(enc, ek), raw)


@given(key=keys, data=st.binary(min_size=1, max_size=256), iv=ivs)
@settings(max_examples=30, deadline=None)
def test_cbc_ciphertext_never_equals_plaintext_prefix(key, data, iv):
    # Sanity: the ciphertext should not begin with the plaintext. Compare
    # whole blocks: a prefix shorter than a block matches by chance (a
    # 1-byte plaintext with probability 1/256), a 16-byte block with 2**-128.
    ek = expand_key(key)
    ct = modes.cbc_encrypt(data, ek, iv)
    assert ct[:16] != modes.pkcs7_pad(data)[:16]
