"""Adversarial-input fuzzing: attacker-controlled bytes must produce
clean ``ValueError`` family exceptions — never crashes, hangs, or
foreign exception types.

This matters beyond hygiene: the threat model (paper Sec. III) has the
decompressor consuming data an attacker may have perturbed, and the
bit-flip study classifies "decode_error" outcomes — which is only a
safe outcome if *every* malformed input is caught deliberately.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.container import pack_container, pack_sections
from repro.core.integrity import AuthenticationError
from repro.core.pipeline import SecureCompressor
from repro.imagecodec import ImageCodec, SecureImageCompressor
from repro.multilevel import MultilevelCodec, SecureMultilevelCompressor
from repro.security.attacks import flip_bit
from repro.sz import SZCompressor, huffman, lossless
from repro.sz.bitstream import PackedBits
from repro.sz.compressor import SECTION_ORDER, SZFrame

KEY = bytes(range(16))

ACCEPTED = (ValueError, AuthenticationError)  # AuthenticationError: subclass


@given(blob=st.binary(max_size=400))
@settings(max_examples=150, deadline=None)
def test_decompress_garbage(blob):
    sc = SecureCompressor("encr_huffman", 1e-3, key=KEY)
    try:
        sc.decompress(blob)
    except ACCEPTED:
        pass


@given(seed=st.integers(0, 2**32 - 1), n_flips=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_decompress_multiflip_containers(seed, n_flips):
    """Multi-bit corruptions of genuine containers either decode to
    *some* array or raise cleanly."""
    rng = np.random.default_rng(seed)
    data = rng.random((6, 8, 8)).astype(np.float32)
    sc = SecureCompressor("none", 1e-3)
    blob = sc.compress(data).container
    for bit in rng.choice(8 * len(blob), size=n_flips, replace=False):
        blob = flip_bit(blob, int(bit))
    try:
        out = sc.decompress(blob)
        assert isinstance(out, np.ndarray)
    except ACCEPTED:
        pass
    except OverflowError:
        # A corrupt meta can claim absurd dims; numpy raises while
        # allocating — also a clean rejection.
        pass


@given(tree=st.binary(max_size=200))
@settings(max_examples=100, deadline=None)
def test_huffman_tree_garbage(tree):
    try:
        huffman.deserialize_tree(tree)
    except ValueError:
        pass


@given(payload=st.binary(min_size=1, max_size=200),
       n_values=st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_huffman_decode_garbage_bits(payload, n_values):
    """Random bits through a real code: decode or ValueError, never a
    hang or index error."""
    values = np.arange(16, dtype=np.int64).repeat(4)
    code = huffman.build_code(*np.unique(values, return_counts=True))
    packed = PackedBits(data=payload, n_bits=8 * len(payload))
    try:
        out = huffman.decode(packed, code, n_values)
        assert out.size == n_values
    except ValueError:
        pass


@given(seed=st.integers(0, 2**32 - 1),
       extra_bytes=st.integers(-2, 2),
       holes=st.booleans())
@settings(max_examples=40, deadline=None)
def test_huffman_decode_garbage_bits_above_threshold(seed, extra_bytes,
                                                     holes):
    """Random bits long enough for the self-synchronizing kernel route:
    decode or ValueError, never a hang or index error.  The complete
    4-bit code decodes any bits (and never resynchronizes off its
    lattice); the incomplete one also meets a Kraft hole."""
    if holes:
        code = huffman.codec_from_table(
            np.arange(6, dtype=np.int64),
            np.array([1, 2, 3, 5, 5, 5], dtype=np.uint8),
        )
    else:
        values = np.arange(16, dtype=np.int64).repeat(4)
        code = huffman.build_code(*np.unique(values, return_counts=True))
    n_values = huffman.SELF_SYNC_MIN_VALUES + seed % 4096
    payload = np.random.default_rng(seed).bytes(n_values // 2 + extra_bytes)
    packed = PackedBits(data=payload, n_bits=8 * len(payload))
    try:
        out = huffman.decode(packed, code, n_values)
        assert out.size == n_values
    except ValueError:
        pass


@given(section=st.sampled_from(SECTION_ORDER),
       blob=st.binary(max_size=120),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_frame_section_substitution(section, blob, seed):
    """Swapping any single frame section for arbitrary bytes must not
    escape the ValueError contract."""
    rng = np.random.default_rng(seed)
    data = rng.random((5, 9)).astype(np.float32)
    comp = SZCompressor(1e-3)
    frame = comp.compress(data)
    sections = dict(frame.sections)
    sections[section] = blob
    try:
        out = comp.decompress(SZFrame(sections=sections, stats=frame.stats))
        assert isinstance(out, np.ndarray)
    except ACCEPTED:
        pass
    except OverflowError:
        pass


@given(blob=st.binary(max_size=300))
@settings(max_examples=80, deadline=None)
def test_image_meta_garbage(blob):
    try:
        ImageCodec.parse_meta(blob)
    except ValueError:
        pass


def test_authenticated_garbage_rejected_fast():
    sc = SecureCompressor("encr_huffman", 1e-3, key=KEY, authenticate=True)
    for blob in (b"", b"SECA", b"SECA" + bytes(31), b"SECA" + bytes(64)):
        with pytest.raises(ACCEPTED):
            sc.decompress(blob)


def _none_container_without(sections: dict[str, bytes], missing: str) -> bytes:
    """A forged ``none`` container: genuine sections, one dropped."""
    kept = {k: v for k, v in sections.items() if k != missing}
    zblob = lossless.compress(pack_sections(kept))
    return pack_container(0, "cbc", bytes(16), {"zblob": zblob})


@pytest.mark.parametrize("missing", ["meta", "tree"])
@pytest.mark.parametrize("reader", ["sz", "image", "multilevel"])
def test_forged_container_missing_section(reader, missing):
    """Every reader refuses a container whose sections lack one the
    codecs need, with the contractual ValueError (not a KeyError)."""
    data = np.random.default_rng(7).random((8, 8, 8)).astype(np.float32)
    if reader == "sz":
        sections = SZCompressor(1e-3).compress(data).sections
        decompress = SecureCompressor("none", 1e-3).decompress
    elif reader == "image":
        sections, _ = ImageCodec(75).encode(data[0] * 255)
        decompress = SecureImageCompressor("none", 75).decompress
    else:
        sections, _ = MultilevelCodec(1e-3).encode(data)
        decompress = SecureMultilevelCompressor("none", 1e-3).decompress
    blob = _none_container_without(sections, missing)
    with pytest.raises(ValueError, match=f"missing.*'{missing}'"):
        decompress(blob)
