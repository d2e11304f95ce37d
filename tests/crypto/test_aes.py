"""The AES128 façade."""

import pytest

from repro.crypto.aes import AES128, OneShotCTR, derive_key

NONCE = b"one-shot"


class TestAes128:
    def test_cbc_roundtrip(self, key):
        cipher = AES128(key)
        enc = cipher.encrypt_cbc(b"attack at dawn")
        assert cipher.decrypt_cbc(enc.ciphertext, enc.iv) == b"attack at dawn"
        assert enc.mode == "cbc"
        assert len(enc.iv) == 16

    def test_ctr_roundtrip(self, key):
        cipher = AES128(key)
        enc = cipher.encrypt_ctr(b"attack at dawn")
        assert cipher.decrypt_ctr(enc.ciphertext, enc.iv) == b"attack at dawn"
        assert enc.mode == "ctr"
        assert len(enc.iv) == 8

    def test_generic_dispatch(self, key):
        cipher = AES128(key)
        for mode in ("cbc", "ctr"):
            enc = cipher.encrypt(b"payload", mode=mode)
            assert cipher.decrypt(enc.ciphertext, enc.iv, mode=mode) == b"payload"

    def test_unknown_mode_rejected(self, key):
        cipher = AES128(key)
        with pytest.raises(ValueError, match="mode"):
            cipher.encrypt(b"x", mode="gcm")
        with pytest.raises(ValueError, match="mode"):
            cipher.decrypt(b"x" * 16, bytes(16), mode="gcm")

    def test_explicit_iv_deterministic(self, key):
        cipher = AES128(key)
        iv = bytes(16)
        a = cipher.encrypt_cbc(b"data", iv=iv).ciphertext
        b = cipher.encrypt_cbc(b"data", iv=iv).ciphertext
        assert a == b

    def test_random_iv_differs(self, key):
        cipher = AES128(key)
        a = cipher.encrypt_cbc(b"data")
        b = cipher.encrypt_cbc(b"data")
        assert a.iv != b.iv  # 2^-128 collision chance

    def test_bad_key_length(self):
        with pytest.raises(ValueError, match="16-byte"):
            AES128(bytes(8))

    def test_ciphertext_grows_by_padding_only(self, key):
        cipher = AES128(key)
        enc = cipher.encrypt_cbc(bytes(100), iv=bytes(16))
        assert len(enc.ciphertext) == 112  # 100 -> next 16 multiple


class TestOneShotCTR:
    """The executable nonce rule: the view ``compress`` hands a scheme
    in CTR mode lets the compress's nonce encrypt exactly once."""

    def _wrapped(self, key):
        cipher = AES128(key)
        return OneShotCTR(cipher, NONCE), cipher

    def test_ctr_matches_plain_cipher(self, key):
        wrapped, cipher = self._wrapped(key)
        pt = bytes(range(256)) * 5
        got = wrapped.encrypt(pt, mode="ctr", iv=NONCE)
        assert got.ciphertext == cipher.encrypt_ctr(pt, NONCE).ciphertext
        assert got.mode == "ctr" and got.iv == NONCE

    def test_second_ctr_encrypt_same_nonce_raises(self, key):
        # No scheme can encrypt two sections under one (key, nonce).
        wrapped, _ = self._wrapped(key)
        wrapped.encrypt(b"first section", mode="ctr", iv=NONCE)
        with pytest.raises(RuntimeError, match="already consumed"):
            wrapped.encrypt(b"second section", mode="ctr", iv=NONCE)

    def test_encrypt_is_one_shot(self, key):
        # A short first encryption spends the nonce whole: no later call,
        # of any length, gets the rest of its keystream.
        wrapped, _ = self._wrapped(key)
        wrapped.encrypt(b"x", mode="ctr", iv=NONCE)
        for later in (b"", b"y" * 1000):
            with pytest.raises(RuntimeError, match="already consumed"):
                wrapped.encrypt(later, mode="ctr", iv=NONCE)

    def test_other_nonce_falls_through(self, key):
        wrapped, cipher = self._wrapped(key)
        wrapped.encrypt(b"first section", mode="ctr", iv=NONCE)
        other = b"other-nc"
        for _ in range(2):
            got = wrapped.encrypt(b"payload", mode="ctr", iv=other)
            assert got.ciphertext == cipher.encrypt_ctr(
                b"payload", other).ciphertext

    def test_cbc_delegates(self, key):
        wrapped, cipher = self._wrapped(key)
        iv = bytes(range(16))
        for _ in range(2):
            got = wrapped.encrypt(b"payload", mode="cbc", iv=iv)
            assert got.ciphertext == cipher.encrypt_cbc(b"payload", iv).ciphertext

    def test_zero_length_ctr(self, key):
        wrapped, _ = self._wrapped(key)
        assert wrapped.encrypt(b"", mode="ctr", iv=NONCE).ciphertext == b""


class TestDeriveKey:
    def test_length(self):
        assert len(derive_key("passphrase")) == 16

    def test_deterministic(self):
        assert derive_key("x") == derive_key("x")

    def test_salt_sensitivity(self):
        assert derive_key("x") != derive_key("x", salt=b"other")

    def test_bytes_and_str_agree(self):
        assert derive_key("abc") == derive_key(b"abc")

    def test_distinct_passphrases(self):
        assert derive_key("a") != derive_key("b")
