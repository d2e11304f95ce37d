"""CBC/CTR modes and PKCS#7 against SP 800-38A vectors."""

import struct
import tracemalloc

import numpy as np
import pytest

from repro.core import trace
from repro.crypto import batch, modes
from repro.crypto.block import cbc_encrypt_words
from repro.crypto.keyschedule import expand_key
from tests.oracles import decrypt_block, encrypt_block

EK = expand_key(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
MSG = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
CBC_EXPECTED = (
    "7649abac8119b246cee98e9b12e9197d"
    "5086cb9b507219ee95db113a917678b2"
    "73bed6b8e3c1743b7116e69e22229516"
    "3ff1caa1681fac09120eca307586e1a7"
)


class TestPkcs7:
    def test_pad_lengths(self):
        for n in range(0, 33):
            padded = modes.pkcs7_pad(bytes(n))
            assert len(padded) % 16 == 0
            assert len(padded) > n  # always at least one pad byte

    def test_pad_unpad_roundtrip(self):
        for n in (0, 1, 15, 16, 17, 31, 32, 100):
            data = bytes(range(256))[:n]
            assert modes.pkcs7_unpad(modes.pkcs7_pad(data)) == data

    def test_exact_multiple_gets_full_block(self):
        padded = modes.pkcs7_pad(bytes(16))
        assert len(padded) == 32
        assert padded[-1] == 16

    def test_unpad_rejects_empty(self):
        with pytest.raises(ValueError):
            modes.pkcs7_unpad(b"")

    def test_unpad_rejects_misaligned(self):
        with pytest.raises(ValueError):
            modes.pkcs7_unpad(bytes(17))

    def test_unpad_rejects_bad_length_byte(self):
        with pytest.raises(ValueError, match="padding"):
            modes.pkcs7_unpad(bytes(15) + b"\x00")
        with pytest.raises(ValueError, match="padding"):
            modes.pkcs7_unpad(bytes(15) + b"\x11")

    def test_unpad_rejects_inconsistent_padding(self):
        blob = bytes(13) + b"\x01\x02\x03"
        with pytest.raises(ValueError, match="corrupt"):
            modes.pkcs7_unpad(blob)


class TestCbc:
    def test_sp800_38a_f21(self):
        ct = modes.cbc_encrypt(MSG, EK, IV)
        assert ct[:64].hex() == CBC_EXPECTED

    def test_sp800_38a_f22_through_batch(self):
        # F.2.2 (CBC-AES128 decrypt): the batched engine plus the chain
        # XOR, P_i = D(C_i) xor C_{i-1}, with C_{-1} = IV.
        blocks = batch.to_blocks(bytes.fromhex(CBC_EXPECTED))
        chain = np.vstack([np.frombuffer(IV, dtype=np.uint8), blocks[:-1]])
        plain = batch.decrypt_blocks(blocks, EK) ^ chain
        assert batch.from_blocks(plain) == MSG

    def test_roundtrip(self):
        for n in (0, 1, 16, 100, 1000):
            msg = bytes((i * 31) % 256 for i in range(n))
            ct = modes.cbc_encrypt(msg, EK, IV)
            assert modes.cbc_decrypt(ct, EK, IV) == msg

    def test_iv_changes_ciphertext(self):
        iv2 = bytes(15) + b"\x01"
        assert modes.cbc_encrypt(MSG, EK, IV) != modes.cbc_encrypt(MSG, EK, iv2)

    def test_chaining(self):
        # Equal plaintext blocks must yield different ciphertext blocks.
        msg = bytes(16) * 4
        ct = modes.cbc_encrypt(msg, EK, IV)
        blocks = [ct[i : i + 16] for i in range(0, 64, 16)]
        assert len(set(blocks)) == 4

    def test_rejects_bad_iv(self):
        with pytest.raises(ValueError, match="IV"):
            modes.cbc_encrypt(b"x", EK, bytes(8))
        with pytest.raises(ValueError, match="IV"):
            modes.cbc_decrypt(bytes(16), EK, bytes(8))

    def test_decrypt_rejects_misaligned(self):
        with pytest.raises(ValueError):
            modes.cbc_decrypt(bytes(15), EK, IV)
        with pytest.raises(ValueError):
            modes.cbc_decrypt(b"", EK, IV)

    def test_wrong_key_fails_or_garbles(self):
        ct = modes.cbc_encrypt(MSG, EK, IV)
        other = expand_key(bytes(16))
        try:
            out = modes.cbc_decrypt(ct, other, IV)
        except ValueError:
            return  # padding check caught it
        assert out != MSG


def _forged_ciphertext(n_blocks: int, seed: int) -> bytes:
    """Random ciphertext blocks whose last block decrypts to valid
    one-byte PKCS#7 padding (built with the scalar encrypt)."""
    raw = np.random.default_rng(seed).integers(
        0, 256, (n_blocks - 1) * 16, dtype=np.uint8).tobytes()
    prev = raw[-16:] if raw else IV
    last = bytes(a ^ b for a, b in zip(bytes(15) + b"\x01", prev))
    return raw + encrypt_block(last, EK)


def _batch_chain(plaintext: bytes, key, iv: bytes) -> bytes:
    """CBC encryption built block by block on the batched engine: each
    padded block XORs the previous ciphertext, the first the IV."""
    padded = modes.pkcs7_pad(plaintext)
    prev = np.frombuffer(iv, dtype=np.uint8)
    out = []
    for off in range(0, len(padded), 16):
        block = np.frombuffer(padded[off : off + 16], dtype=np.uint8) ^ prev
        prev = batch.encrypt_blocks(block[None, :], key)[0]
        out.append(prev.tobytes())
    return b"".join(out)


class TestCbcKernel:
    """CBC encryption runs the block.cbc_encrypt_words chain kernel."""

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_matches_batch_engine_chain(self, seed):
        rng = np.random.default_rng(seed)
        key = expand_key(rng.bytes(16))
        iv = rng.bytes(16)
        for n in (0, 1, 15, 16, 17, 31, 32, 33):
            msg = rng.bytes(n)
            assert modes.cbc_encrypt(msg, key, iv) == _batch_chain(msg, key, iv), n

    @pytest.mark.parametrize("n_blocks", [
        modes.CTR_SEGMENT_BLOCKS - 1, modes.CTR_SEGMENT_BLOCKS,
        modes.CTR_SEGMENT_BLOCKS + 1,
    ])
    def test_window_seam_matches_batch_engine(self, n_blocks):
        # Padded lengths one block either side of a window seam, and
        # the padding block closing a full window.  The chain
        # check is vectorized: every ciphertext block must be the batch
        # encryption of its plaintext block XOR the previous ciphertext
        # block (the IV for the first), which pins the chain by
        # induction without 8,000 one-block engine calls.
        rng = np.random.default_rng(n_blocks)
        key = expand_key(rng.bytes(16))
        iv = rng.bytes(16)
        msg = rng.bytes(16 * n_blocks - 5)
        ct = modes.cbc_encrypt(msg, key, iv)
        assert len(ct) == 16 * n_blocks
        plain = batch.to_blocks(modes.pkcs7_pad(msg))
        cipher = batch.to_blocks(ct)
        prev = np.vstack([np.frombuffer(iv, dtype=np.uint8), cipher[:-1]])
        assert np.array_equal(batch.encrypt_blocks(plain ^ prev, key), cipher)
        assert modes.cbc_decrypt(ct, key, iv) == msg

    def test_blocks_encrypted_counter(self):
        before = trace.counters_snapshot().get("aes.blocks_encrypted", 0)
        modes.cbc_encrypt(bytes(16 * 5 + 3), EK, IV)
        after = trace.counters_snapshot()["aes.blocks_encrypted"]
        assert after - before == 6

    def test_peak_memory_bounded(self, monkeypatch):
        # Only the final block is padded and the word lists are per
        # window, so the peak is the ciphertext windows plus their
        # joined copy: 2.0x.  Padding the whole plaintext read 3.0x;
        # one unwindowed word list read 22.75x.  tracemalloc traces
        # every int the rounds make, which took ~250 s at 4 MiB on a
        # 2-vCPU VM (and read 2.0x too), so the rounds are left out
        # here: the kernel's memory is its window plus the packed
        # output, which test_kernel_holds_only_its_window pins.
        monkeypatch.setattr(modes, "cbc_encrypt_words", _pack_only)
        msg = np.random.default_rng(34).integers(
            0, 256, 4 << 20, dtype=np.uint8).tobytes()
        peak = _traced_peak(lambda: modes.cbc_encrypt(msg, EK, IV))
        assert peak <= 3.0 * len(msg), peak / len(msg)

    def test_kernel_holds_only_its_window(self):
        # The real rounds overwrite each block's words in place and pack
        # once, so on one window the kernel peaks where packing alone
        # does: a per-block output list would add ~40 bytes a word.
        rng = np.random.default_rng(35)
        plain = np.frombuffer(rng.bytes(16 * 256), dtype=">u4")

        def peak_of(kernel):
            return _traced_peak(lambda: kernel(plain.tolist(), EK, IV))

        assert peak_of(cbc_encrypt_words) <= peak_of(_pack_only) + 4096


def _pack_only(words, key, chain):
    """The chain kernel's memory shape without its rounds."""
    return struct.pack(f">{len(words)}I", *words)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCbcWindows:
    """CBC decrypt runs the engine over CTR_SEGMENT_BLOCKS windows."""

    def test_window_seams_match_scalar_chain(self):
        seg = modes.CTR_SEGMENT_BLOCKS
        ct = _forged_ciphertext(2 * seg + 3, seed=21)
        plain = modes.cbc_decrypt(ct, EK, IV)
        assert len(plain) == len(ct) - 1

        def scalar(i):
            prev = IV if i == 0 else ct[16 * (i - 1) : 16 * i]
            block = decrypt_block(ct[16 * i : 16 * (i + 1)], EK)
            return bytes(a ^ b for a, b in zip(block, prev))

        # Both seams (blocks seg-1 | seg and 2*seg-1 | 2*seg), the first
        # block and the tail; the tail block carries the padding byte.
        for i in (0, 1, seg - 1, seg, seg + 1, 2 * seg - 1, 2 * seg,
                  2 * seg + 1):
            assert plain[16 * i : 16 * (i + 1)] == scalar(i), i
        assert plain[16 * (2 * seg + 2) :] == scalar(2 * seg + 2)[:15]

    def test_windowed_roundtrip(self):
        seg = modes.CTR_SEGMENT_BLOCKS
        msg = np.random.default_rng(22).integers(
            0, 256, 16 * (seg + 2) - 7, dtype=np.uint8).tobytes()
        assert modes.cbc_decrypt(modes.cbc_encrypt(msg, EK, IV), EK, IV) == msg

    def test_peak_memory_bounded(self):
        # tracemalloc's peak is deterministic for a given input size:
        # whole-buffer decryption peaked at 5x the ciphertext, windows
        # keep it near 2x (the plaintext array plus its bytes copy).
        ct = _forged_ciphertext(1 << 18, seed=23)  # 4 MiB
        tracemalloc.start()
        try:
            modes.cbc_decrypt(ct, EK, IV)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(ct), peak / len(ct)


class TestCtrXcryptMemory:
    """ctr_xcrypt XORs into its own keystream buffer."""

    def test_peak_memory_bounded(self):
        # The keystream plus the returned bytes is 2x the input; a
        # separate XOR result array on top of them peaked at 3x.
        data = np.random.default_rng(24).integers(
            0, 256, 4 << 20, dtype=np.uint8).tobytes()
        tracemalloc.start()
        try:
            ct = modes.ctr_xcrypt(data, EK, b"memcheck")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(data), peak / len(data)
        assert modes.ctr_xcrypt(ct, EK, b"memcheck") == data


class TestCtr:
    def test_involution(self):
        nonce = b"\x01" * 8
        ct = modes.ctr_xcrypt(MSG, EK, nonce)
        assert modes.ctr_xcrypt(ct, EK, nonce) == MSG

    def test_no_length_change(self):
        for n in (0, 1, 15, 16, 17, 100):
            assert len(modes.ctr_xcrypt(bytes(n), EK, b"12345678")) == n

    def test_keystream_deterministic(self):
        a = modes.ctr_keystream(EK, b"abcdefgh", 100)
        b = modes.ctr_keystream(EK, b"abcdefgh", 100)
        assert (a == b).all()

    def test_keystream_nonce_sensitivity(self):
        a = modes.ctr_keystream(EK, b"abcdefgh", 64)
        b = modes.ctr_keystream(EK, b"abcdefgi", 64)
        assert (a != b).any()

    def test_counter_blocks_distinct(self):
        ks = modes.ctr_keystream(EK, b"\x00" * 8, 16 * 10)
        blocks = [ks[i * 16 : (i + 1) * 16].tobytes() for i in range(10)]
        assert len(set(blocks)) == 10

    def test_rejects_bad_nonce(self):
        with pytest.raises(ValueError, match="nonce"):
            modes.ctr_xcrypt(b"data", EK, bytes(16))


#: SP 800-38A F.5.1 (AES-128 CTR): initial counter block
#: f0f1...feff splits into our nonce (first 8 bytes) and a nonzero
#: 64-bit initial counter (last 8 bytes).
CTR_NONCE = bytes.fromhex("f0f1f2f3f4f5f6f7")
CTR_INITIAL = 0xF8F9FAFBFCFDFEFF
CTR_EXPECTED = bytes.fromhex(
    "874d6191b620e3261bef6864990db6ce"
    "9806f66b7970fdff8617187bb9fffdff"
    "5ae4df3edbd5d35e5b4f09020db03eab"
    "1e031dda2fbe03d1792170a0f3009cee"
)


class TestCtrSegmented:
    """The `initial` offset, segmentation, and the overflow guard."""

    def test_sp800_38a_f51_at_nonzero_offset(self):
        ct = modes.ctr_xcrypt(MSG, EK, CTR_NONCE, CTR_INITIAL)
        assert ct == CTR_EXPECTED

    def test_sp800_38a_f51_segment_resume(self):
        # Encrypt the 4 vector blocks one at a time, resuming the
        # counter — must reproduce the published ciphertext exactly.
        out = b"".join(
            modes.ctr_xcrypt(
                MSG[i * 16 : (i + 1) * 16], EK, CTR_NONCE, CTR_INITIAL + i
            )
            for i in range(4)
        )
        assert out == CTR_EXPECTED

    def test_initial_equals_stream_slice(self):
        full = modes.ctr_keystream(EK, b"abcdefgh", 400)
        for skip in (1, 3, 7, 24):
            tail = modes.ctr_keystream(
                EK, b"abcdefgh", 400 - skip * 16, initial=skip
            )
            assert np.array_equal(tail, full[skip * 16 :])

    @pytest.mark.parametrize("n_bytes", [0, 1, 15, 16, 17, 100, 1000, 16 * 13 + 5])
    @pytest.mark.parametrize("segment_blocks", [1, 2, 3, 8, 64])
    def test_segmented_bit_identical_to_monolithic(self, n_bytes, segment_blocks):
        mono = modes.ctr_keystream(
            EK, b"\x07" * 8, n_bytes, segment_blocks=1 << 30
        )
        seg = modes.ctr_keystream(
            EK, b"\x07" * 8, n_bytes, segment_blocks=segment_blocks
        )
        assert np.array_equal(mono, seg)

    def test_concatenated_segments_bit_identical(self):
        nonce = b"seg-cat!"
        full = modes.ctr_keystream(EK, nonce, 16 * 20 + 9)
        for split_blocks in (1, 4, 19):
            head = modes.ctr_keystream(EK, nonce, split_blocks * 16)
            tail = modes.ctr_keystream(
                EK, nonce, 16 * 20 + 9 - split_blocks * 16, initial=split_blocks
            )
            assert np.array_equal(np.concatenate([head, tail]), full)

    def test_segment_counter(self):
        before = trace.counters_snapshot().get("aes.keystream_segments", 0)
        modes.ctr_keystream(EK, bytes(8), 16 * 10, segment_blocks=4)
        after = trace.counters_snapshot()["aes.keystream_segments"]
        assert after - before == 3  # ceil(10 / 4)

    def test_counter_overflow_guard(self):
        with pytest.raises(ValueError, match="overflow"):
            modes.ctr_keystream(EK, bytes(8), 32, initial=2**64 - 1)
        with pytest.raises(ValueError, match="overflow"):
            modes._counter_blocks(bytes(8), 2, initial=2**64 - 1)
        # Validation happens before any segment is emitted.
        with pytest.raises(ValueError, match="overflow"):
            modes.ctr_keystream(
                EK, bytes(8), 16 * 100, initial=2**64 - 50, segment_blocks=10
            )

    def test_counter_space_edge_is_usable(self):
        # The very last counter value must work (no off-by-one).
        ks = modes.ctr_keystream(EK, bytes(8), 16, initial=2**64 - 1)
        blocks = modes._counter_blocks(bytes(8), 1, initial=2**64 - 1)
        assert bytes(blocks[0, 8:]) == b"\xff" * 8
        assert ks.size == 16

    def test_negative_initial_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            modes.ctr_keystream(EK, bytes(8), 16, initial=-1)

    def test_bad_segment_blocks_rejected(self):
        with pytest.raises(ValueError, match="segment_blocks"):
            modes.ctr_keystream(EK, bytes(8), 16, segment_blocks=0)

    def test_zero_bytes(self):
        assert modes.ctr_keystream(EK, bytes(8), 0).size == 0
        assert modes.ctr_xcrypt(b"", EK, bytes(8)) == b""
