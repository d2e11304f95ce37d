"""LZ77 frame fuzzing: hostile token streams must never escape
``ValueError``.

The LZ7H frame is parsed before any key material is involved, so an
attacker fully controls these bytes.  Decoding must reject (or decode
to *some* bytes) — never hang, overflow an allocation, or throw a
foreign exception type — and genuine frames must survive round-trip
no matter which corpus shape produced them.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz import lz77

from tests.fuzz import corpus

_HEADER_SIZE = lz77._LZ_HEADER.size


@given(blob=st.binary(max_size=400))
@settings(max_examples=150, deadline=None)
def test_decompress_garbage(blob):
    try:
        lz77.decompress(blob)
    except ValueError:
        pass


@given(name=st.sampled_from(corpus.names()),
       seed=st.integers(0, 2**32 - 1),
       n_flips=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_bitflipped_frames_fail_closed(name, seed, n_flips):
    """Corrupting a real frame decodes to bytes or raises cleanly."""
    data = corpus.build(name)
    blob = bytearray(lz77.compress(data))
    rng = np.random.default_rng(seed)
    for bit in rng.choice(8 * len(blob), size=min(n_flips, len(blob)),
                          replace=False):
        blob[bit // 8] ^= 1 << (bit % 8)
    try:
        out = lz77.decompress(bytes(blob))
        assert isinstance(out, bytes)
    except ValueError:
        pass


@given(field=st.integers(0, 10), value=st.integers(0, 2**63 - 1))
@settings(max_examples=120, deadline=None)
def test_header_field_substitution(field, value):
    """Rewriting any single header field must not escape ValueError.

    This is the allocation-bomb check: raw_len / n_tokens / bit counts
    are attacker-controlled sizes, and every one must be bounded by
    cross-checks before an array that large is built.
    """
    blob = lz77.compress(corpus.build("text_log"))
    fields = list(lz77._LZ_HEADER.unpack_from(blob))
    # Field widths follow '<4sBBIIQQQQQQ': magic, two bytes, two u32,
    # six u64 — mask the fuzzed value into the field's range.
    if field == 0:
        fields[0] = struct.pack("<Q", value)[:4]
    elif field in (1, 2):
        fields[field] = value % 256
    elif field in (3, 4):
        fields[field] = value % 2**32
    else:
        fields[field] = value
    mutated = lz77._LZ_HEADER.pack(*fields) + blob[_HEADER_SIZE:]
    try:
        out = lz77.decompress(mutated)
        assert isinstance(out, bytes)
    except ValueError:
        pass


@given(name=st.sampled_from(corpus.names()),
       cut=st.integers(0, 300))
@settings(max_examples=60, deadline=None)
def test_truncated_frames_rejected(name, cut):
    blob = lz77.compress(corpus.build(name))
    truncated = blob[: max(0, len(blob) - cut)]
    if truncated == blob:
        assert lz77.decompress(truncated) == corpus.build(name)
        return
    with pytest.raises(ValueError):
        lz77.decompress(truncated)


@given(data=st.binary(max_size=3000))
@settings(max_examples=100, deadline=None)
def test_round_trip_arbitrary_bytes(data):
    assert lz77.decompress(lz77.compress(data)) == data


# ----------------------------------------------------------------------
# Hand-built token streams: frames the matcher never writes
# ----------------------------------------------------------------------


def _program_frame(monkeypatch, program, raw_len):
    """An LZ7H frame whose tokens are ``program`` (ints are literal
    bytes, ``(length, distance)`` pairs are matches) and whose header
    declares ``raw_len`` output bytes.  The frame's own encoder writes
    it, so every count and length in it is consistent; only its
    meaning is hostile."""
    tokens = np.array([
        256 + int(lz77._bucket(np.array([step[0] - lz77.MIN_MATCH]))[0])
        if isinstance(step, tuple) else step
        for step in program
    ], dtype=np.int64)
    matches = [step for step in program if isinstance(step, tuple)]
    lengths = np.array([m[0] for m in matches], dtype=np.int64)
    distances = np.array([m[1] for m in matches], dtype=np.int64)
    n_lit = len(program) - len(matches)
    monkeypatch.setattr(
        lz77, "tokenize", lambda data: (tokens, lengths, distances, n_lit)
    )
    return lz77.compress(bytes(raw_len))


#: (program, declared raw length, the error it must raise), one row per
#: decode step a hostile stream can reach: the extra-bits gather, the
#: match-length buckets, the output-size check and the match copy.
HOSTILE_PROGRAMS = {
    "length-past-cap": ([65, (lz77.MAX_MATCH + 3, 1)], 1 + lz77.MAX_MATCH + 3,
                        "exceeds format caps"),
    "size-disagrees": ([65, 66, 67, 68, (4, 4)], 9, "decoded size"),
    "literals-size-disagrees": ([65, 66], 3, "decoded size"),
    "match-before-start": ([(4, 1), 65], 5, "before the output start"),
    "distance-past-output": ([65, 66, (4, 3)], 6, "before the output start"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_PROGRAMS))
def test_hostile_token_streams_raise_value_error(case, monkeypatch):
    program, raw_len, match = HOSTILE_PROGRAMS[case]
    blob = _program_frame(monkeypatch, program, raw_len)
    with pytest.raises(ValueError, match=match) as info:
        lz77.decompress(blob)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("case", sorted(HOSTILE_PROGRAMS))
def test_hostile_token_streams_through_the_archive(case, monkeypatch,
                                                   tmp_path):
    """A stored LZ7H blob decodes fail-closed on extract: only
    ``ValueError``/``ArchiveCorrupt`` reach the caller."""
    from repro.archive import ArchiveCorrupt, ArchiveStore

    program, raw_len, _ = HOSTILE_PROGRAMS[case]
    store = ArchiveStore.create(str(tmp_path / "a.secb"))
    with monkeypatch.context() as patch:
        _program_frame(patch, program, raw_len)
        store.add_bytes("e", bytes(raw_len), codec="lz77h")
    with pytest.raises(ValueError) as info:
        store.extract_bytes("e")
    assert type(info.value) in (ValueError, ArchiveCorrupt)


def test_extra_bits_gather_checks_its_stream():
    """Widths that run past the extra-bits stream fail as ValueError,
    before any window is read."""
    with pytest.raises(ValueError, match="past the stream"):
        lz77._gather_extras(b"", np.full(20, 8, dtype=np.int64))
