"""Differential tests: both Huffman decode routes against one oracle.

Every decoder walks the code's one packed two-level table
(``CanonicalCodec.decode_table``).  ``fastdecode.decode_lanes`` decodes
every v3 frame through it in one staged-output loop,
``fastdecode.decode_stream`` sends single (v2) streams of at least
``huffman.SELF_SYNC_MIN_VALUES`` symbols through the same loop by
self-synchronization, and the scalar loop (``huffman._scan_ranks``)
reads shorter streams.  The oracle is ``decode_ranks_ref`` in
``tests/oracles.py``: a table-free, bit-serial decoder that knows only
each length's first canonical code and count.  Each lane of a v3
encoding is a self-contained stream, so the kernel's output, and the
scalar loop's reading of each lane, must equal the oracle's decode of
every lane, concatenated.  On single streams, on either side of the
threshold, every route must return the oracle's symbols and accept or
reject exactly the streams it does.  Codes are drawn
at the depths where the table's shape changes (one level up to 16
bits; root plus 1- to 8-bit sub-tables above) and at shallow depths
that pack up to 9 symbols per gather, in uniform and ragged segment
layouts; incomplete codes check that both table levels keep their
Kraft holes fail-closed.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz import fastdecode, huffman
from repro.sz.bitstream import PackedBits, concat_streams
from repro.sz.huffman import DEPTH_LIMIT_BITS, LaneTable
from tests.oracles import decode_ranks_ref

DEPTHS = (6, 12, 16, 17, 19, 20, 21, 24)
THRESHOLD = huffman.SELF_SYNC_MIN_VALUES


def _code_from_lengths(lengths, seed: int = 0) -> huffman.HuffmanCode:
    """Canonical code over sparse symbols with exactly these lengths."""
    lengths = np.asarray(lengths, dtype=np.uint8)
    rng = np.random.default_rng(seed)
    symbols = np.cumsum(rng.integers(1, 5, lengths.size)) - 40
    return huffman.codec_from_table(
        symbols.astype(np.int64), rng.permutation(lengths)
    ).code


@st.composite
def codes_of_depth(draw, max_len: int):
    """A valid code whose longest codeword is exactly ``max_len`` bits.

    Starts from the complete chain ``1, 2, ..., max_len, max_len`` and
    splits drawn leaves one level deeper (Kraft stays 1), then may drop
    leaves to leave holes — never the last ``max_len`` leaf, so the
    depth holds.
    """
    lengths = list(range(1, max_len + 1)) + [max_len]
    for pick in draw(st.lists(st.integers(0, 1 << 20), max_size=60)):
        i = pick % (len(lengths) - 1)
        if lengths[i] < max_len:
            lengths[i : i + 1] = [lengths[i] + 1] * 2
    for pick in draw(st.lists(st.integers(0, 1 << 20), max_size=3)):
        if len(lengths) > 2:
            del lengths[pick % (len(lengths) - 1)]
    return _code_from_lengths(lengths, draw(st.integers(0, 2**32 - 1)))


@st.composite
def layouts(draw):
    """``(n_values, n_lanes, stride)``: uniform segment grids, ragged
    tails, and lanes shorter than the stride."""
    n_lanes = draw(st.integers(1, 6))
    stride = draw(st.integers(1, 40))
    if draw(st.booleans()):
        return n_lanes * stride * draw(st.integers(1, 6)), n_lanes, stride
    return draw(st.integers(n_lanes, 700)), n_lanes, stride


def _values(code: huffman.HuffmanCode, n: int, seed: int) -> np.ndarray:
    """Mostly uniform over the alphabet, so long codes (and sub-table
    lookups) are common, with one symbol made frequent."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(code.n_symbols))
    p[rng.integers(code.n_symbols)] += 1.0
    return rng.choice(code.symbols, size=n, p=p / p.sum())


def _scalar(packed, code, n):
    """The scalar loop called directly, whatever the stream's length."""
    return huffman._scan_ranks(huffman.codec_for(code), packed, n)


def _kernel_scalar_oracle(code, values, n_lanes, stride):
    """One v3 encoding of ``values`` read by the lane kernel, and each
    of its lanes read by the scalar loop and by the oracle, as
    symbol values."""
    enc = huffman.encode_lanes(values, code, n_lanes, stride)
    kernel = fastdecode.decode_lanes(
        concat_streams(list(enc.lanes)), code, enc.table, values.size
    )
    sizes = huffman.lane_sizes(values.size, n_lanes).tolist()
    scalar, oracle = (
        np.concatenate([decode(lane, code, size)
                        for lane, size in zip(enc.lanes, sizes)])
        for decode in (_scalar, decode_ranks_ref)
    )
    return tuple(code.symbols[ranks] for ranks in (kernel, scalar, oracle))


def _assert_all_equal(outputs, values):
    for out in outputs:
        np.testing.assert_array_equal(out, values)


class TestKernelMatchesScalar:
    @pytest.mark.parametrize("max_len", DEPTHS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_drawn_codes_and_layouts(self, max_len, data):
        code = data.draw(codes_of_depth(max_len))
        assert int(code.lengths.max()) == max_len
        n, n_lanes, stride = data.draw(layouts())
        values = _values(code, n, data.draw(st.integers(0, 2**32 - 1)))
        _assert_all_equal(
            _kernel_scalar_oracle(code, values, n_lanes, stride), values
        )

    @pytest.mark.parametrize("max_len", DEPTHS)
    @pytest.mark.parametrize(
        "n, n_lanes, stride",
        [
            (4 * 3 * 64, 4, 64),     # uniform grid
            (4 * 3 * 64 + 5, 4, 64),  # ragged last segments
            (3 * 7, 3, 64),           # every lane shorter than the stride
            (2 * 13 + 1, 2, 13),      # quotas ending mid-group (k = 2, 3)
            (1, 1, 1),
        ],
    )
    def test_fixed_layouts(self, max_len, n, n_lanes, stride):
        code = _code_from_lengths(
            list(range(1, max_len + 1)) + [max_len], seed=max_len
        )
        values = _values(code, n, seed=n)
        _assert_all_equal(
            _kernel_scalar_oracle(code, values, n_lanes, stride), values
        )


def _routes(code, packed, n):
    """Every way to read one stream: ``huffman.decode``, the scalar
    loop and the kernel route called directly, and the oracle."""
    return (
        lambda: huffman.decode(packed, code, n),
        lambda: code.symbols[_scalar(packed, code, n)],
        lambda: code.symbols[fastdecode.decode_stream(packed, code, n)],
        lambda: code.symbols[decode_ranks_ref(packed, code, n)],
    )


def _assert_rejected(code, packed, n):
    for decode in _routes(code, packed, n):
        with pytest.raises(ValueError):
            decode()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Symbol count of every call ``huffman.decode`` routes to the kernel."""
    calls = []
    real = fastdecode.decode_stream

    def spy(packed, code, n_values):
        calls.append(n_values)
        return real(packed, code, n_values)

    monkeypatch.setattr(fastdecode, "decode_stream", spy)
    return calls


class TestSingleStreamMatchesScalar:
    @pytest.mark.parametrize("max_len", DEPTHS)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_drawn_codes_both_sides_of_threshold(self, max_len, data):
        code = data.draw(codes_of_depth(max_len))
        n = data.draw(
            st.sampled_from([THRESHOLD - 1, THRESHOLD])
            | st.integers(THRESHOLD + 1, THRESHOLD + 3000)
            | st.integers(1, 2000)
        )
        values = _values(code, n, data.draw(st.integers(0, 2**32 - 1)))
        packed = huffman.encode(values, code)
        for decode in _routes(code, packed, n):
            np.testing.assert_array_equal(decode(), values)

    @pytest.mark.parametrize("max_len", DEPTHS)
    @pytest.mark.parametrize("n", [THRESHOLD - 1, THRESHOLD])
    def test_threshold_picks_the_route(self, max_len, n, kernel_calls):
        code = _code_from_lengths(
            list(range(1, max_len + 1)) + [max_len], seed=max_len
        )
        values = _values(code, n, seed=max_len)
        packed = huffman.encode(values, code)
        np.testing.assert_array_equal(huffman.decode(packed, code, n), values)
        assert kernel_calls == ([n] if n >= THRESHOLD else [])


class TestSingleStreamFailClosed:
    def test_equal_lengths_never_resync_and_hit_the_round_cap(
        self, monkeypatch
    ):
        # 256 symbols x 8 bits: decoding from a guess off the byte
        # lattice stays off it, so each round settles one segment and
        # the round cap hands the rest to the scalar loop.
        code = _code_from_lengths([8] * 256, seed=3)
        n = (1 << 15) + 3  # guesses land off the byte lattice
        values = _values(code, n, seed=3)
        packed = huffman.encode(values, code)
        rounds, tails = [], []
        real_run, real_scalar = fastdecode._run_past, huffman._scan_ranks

        def run_spy(*args):
            rounds.append(args[4].size)
            return real_run(*args)

        def scalar_spy(codec, packed, n_values, start=0):
            tails.append((start, n_values))
            return real_scalar(codec, packed, n_values, start)

        monkeypatch.setattr(fastdecode, "_run_past", run_spy)
        monkeypatch.setattr(huffman, "_scan_ranks", scalar_spy)
        np.testing.assert_array_equal(huffman.decode(packed, code, n), values)
        assert len(rounds) == fastdecode._SYNC_ROUNDS
        assert all(size > 1 for size in rounds)
        ((start, rest),) = tails
        assert start > 0 and start % 8 == 0
        assert rest == n - start // 8

    @pytest.mark.parametrize("n", [THRESHOLD - 1, THRESHOLD])
    @pytest.mark.parametrize(
        "defect", ["one-bit-short", "one-value-more", "trailing-bits"]
    )
    def test_malformed_stream_rejected_on_both_sides(self, n, defect):
        code = _code_from_lengths(list(range(1, 13)) + [12], seed=1)
        values = _values(code, n - (defect == "one-value-more"), seed=n)
        packed = huffman.encode(values, code)
        n_bits = packed.n_bits
        if defect == "one-bit-short":
            packed = PackedBits(packed.data[: (n_bits + 6) // 8], n_bits - 1)
        elif defect == "trailing-bits":
            # Zero bits decode as the all-zero codeword, so the chain
            # runs on past n_values symbols.
            extra = (n_bits + 5 + 7) // 8 - len(packed.data)
            packed = PackedBits(packed.data + bytes(extra), n_bits + 5)
        _assert_rejected(code, packed, n)

    @pytest.mark.parametrize("n", [THRESHOLD - 1, THRESHOLD])
    @pytest.mark.parametrize("n_bits", ["below-n", "above-3n"])
    def test_bit_count_no_chain_can_fill_rejected(self, n, n_bits):
        # Codes of 1 to 3 bits: n symbols fill n to 3n bits.  All-zero
        # bits decode as the 1-bit codeword.
        code = _code_from_lengths([1, 2, 3, 3], seed=2)
        bits = n - 1 if n_bits == "below-n" else 3 * n + 1
        packed = PackedBits(bytes(-(-bits // 8)), bits)
        _assert_rejected(code, packed, n)


class TestTableShape:
    @pytest.mark.parametrize("max_len", DEPTHS)
    def test_root_width_and_size_bound(self, max_len):
        code = _code_from_lengths(list(range(1, max_len + 1)) + [max_len])
        tab, root_bits, depth = huffman.CanonicalCodec(code).decode_table()
        assert depth == max_len
        assert tab.dtype == np.int32
        assert root_bits == min(max_len, DEPTH_LIMIT_BITS)
        assert tab.size <= (1 << root_bits) + (1 << max_len)
        # Links live in the root only; sub-table entries are leaves.
        assert (tab[: 1 << root_bits] < 0).sum() == (max_len > root_bits)
        assert (tab[1 << root_bits :] >= 0).all()

    def test_hostile_tree_build_is_bounded(self):
        # One 1-bit symbol, then 2^15 root prefixes' worth of lengths
        # 17..24,24: every prefix of the lower half links to a full
        # 256-entry sub-table, a 34 MB table from a 590 KB tree.
        lengths = np.concatenate([
            [1], np.tile(np.r_[np.arange(17, 25), 24], 1 << 15)
        ]).astype(np.uint8)
        code = huffman.HuffmanCode(
            symbols=np.arange(lengths.size, dtype=np.int64),
            lengths=lengths,
            codewords=huffman._canonical_codewords(lengths),
        )
        assert code.n_symbols == 294_913
        tracemalloc.start()
        try:
            tab, root_bits, _ = huffman.CanonicalCodec(code).decode_table()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tab.size <= (1 << root_bits) + (1 << 24)
        assert tab.size == (1 << 16) + (1 << 23)
        assert peak <= 2 * tab.nbytes
        # And the table decodes: a lane stream over every length.
        rng = np.random.default_rng(0)
        values = rng.choice(code.symbols, size=3000)
        try:
            outputs = _kernel_scalar_oracle(code, values, 3, 64)
        finally:
            huffman.codec_cache_clear()  # drop the cached 34 MB table
        _assert_all_equal(outputs, values)

    def test_hostile_tree_scalar_route_memory_is_one_table(self):
        # One 1-bit code, 2 * (2^15 - 1) 17-bit codes, then 17..24, 24:
        # 65,544 symbols with a Kraft sum of exactly 1.  Every prefix
        # of the root's upper half links to a full 256-entry sub-table,
        # a 33.8 MB table.  A short stream read through the scalar loop
        # must cost about that one table, not a copy of it.
        lengths = np.array(
            [1] + [17] * (2 * (2**15 - 1)) + list(range(17, 25)) + [24],
            dtype=np.uint8,
        )
        assert lengths.size == 65_544
        assert (2.0 ** -lengths.astype(np.float64)).sum() == 1.0
        code = huffman.codec_from_table(
            np.arange(lengths.size, dtype=np.int64), lengths
        ).code
        assert len(huffman.serialize_tree(code)) > 130_000
        values = np.random.default_rng(1).choice(code.symbols, size=200)
        packed = huffman.encode(values, code)
        gc.collect()
        tracemalloc.start()
        try:
            out = huffman.decode(packed, code, values.size)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            tab = huffman.codec_for(code).decode_table()[0]
        finally:
            tracemalloc.stop()
            huffman.codec_cache_clear()  # drop the cached 34 MB table
        assert tab.size == (1 << 16) + (1 << 15) * (1 << 8) == 8_454_144
        assert peak <= 1.2 * tab.nbytes, peak / tab.nbytes
        np.testing.assert_array_equal(out, values)
        np.testing.assert_array_equal(
            out, code.symbols[decode_ranks_ref(packed, code, values.size)]
        )


class TestKraftHoles:
    # Lengths 1..15 leave the last two 16-bit root prefixes free; one
    # 20-bit code takes the first slot under 0xFFFE.  So prefix 0xFFFF
    # is a root hole and 0xFFFE + any nonzero 4 bits a sub-table hole.
    LENGTHS = list(range(1, 16)) + [20]

    def _corrupt(self, prefix: bytes):
        code = _code_from_lengths(self.LENGTHS, seed=5)
        values = _values(code, 600, seed=5)
        enc = huffman.encode_lanes(values, code, 2, 64)
        codes = bytearray(concat_streams(list(enc.lanes)))
        codes[: len(prefix)] = prefix
        return bytes(codes), code, enc, values

    @pytest.mark.parametrize(
        "prefix",
        [b"\xff\xff\xff", b"\xff\xfe\x10"],
        ids=["root-hole", "sub-table-hole"],
    )
    def test_hole_fails_closed(self, prefix):
        codes, code, enc, values = self._corrupt(prefix)
        with pytest.raises(ValueError):
            fastdecode.decode_lanes(codes, code, enc.table, values.size)
        lane0 = huffman.PackedBits(
            data=codes[: len(enc.lanes[0].data)],
            n_bits=enc.lanes[0].n_bits,
        )
        _assert_rejected(code, lane0, values.size // 2)

    @pytest.mark.parametrize("n", [THRESHOLD - 1, THRESHOLD])
    @pytest.mark.parametrize("where", ["first", "middle"])
    @pytest.mark.parametrize(
        "prefix",
        [b"\xff\xff\xff", b"\xff\xfe\x10"],
        ids=["root-hole", "sub-table-hole"],
    )
    def test_hole_on_the_true_chain_fails_closed_single_stream(
        self, prefix, where, n
    ):
        code = _code_from_lengths(self.LENGTHS, seed=5)
        values = _values(code, n, seed=5)
        packed = huffman.encode(values, code)
        # Overwrite the stream at a byte-aligned codeword boundary.
        lengths = code.lengths[np.searchsorted(code.symbols, values)]
        bounds = np.cumsum(lengths.astype(np.int64)) - lengths
        aligned = bounds[bounds % 8 == 0] // 8
        at = 0 if where == "first" else int(aligned[aligned.size // 2])
        data = bytearray(packed.data)
        data[at : at + len(prefix)] = prefix
        corrupt = PackedBits(bytes(data), packed.n_bits)
        _assert_rejected(code, corrupt, n)

    def test_holes_met_only_from_guesses_do_not_raise(self, monkeypatch):
        # Codewords 00, 01, 100, 101 leave prefix 11 a hole.  The true
        # chain never starts a codeword there, but "01" followed by
        # "10x" puts 11 across the boundary, where guesses can land.
        code = _code_from_lengths([2, 2, 3, 3], seed=6)
        values = _values(code, THRESHOLD + 1, seed=6)
        packed = huffman.encode(values, code)
        frozen = []
        real = fastdecode._run_past

        def spy(*args):
            count, end, rows = real(*args)
            frozen.append(int((end < 0).sum()))
            return count, end, rows

        monkeypatch.setattr(fastdecode, "_run_past", spy)
        out = huffman.decode(packed, code, values.size)
        np.testing.assert_array_equal(out, values)
        assert frozen[0] > 0
        for decode in _routes(code, packed, values.size):
            np.testing.assert_array_equal(decode(), values)

    def test_holes_are_zero_at_both_levels(self):
        code = _code_from_lengths(self.LENGTHS, seed=5)
        tab, root_bits, _ = huffman.CanonicalCodec(code).decode_table()
        assert tab[0xFFFF] == 0
        link = -int(tab[0xFFFE])
        assert link >= 1 << root_bits
        assert tab[link] != 0 and (tab[link + 1 : link + 16] == 0).all()

    @pytest.mark.parametrize("max_len", (17, 21, 24))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_flipped_streams_raise_only_valueerror(self, max_len, data):
        code = data.draw(codes_of_depth(max_len))
        n, n_lanes, stride = data.draw(layouts())
        values = _values(code, n, data.draw(st.integers(0, 2**32 - 1)))
        enc = huffman.encode_lanes(values, code, n_lanes, stride)
        codes = bytearray(concat_streams(list(enc.lanes)))
        if not codes:
            return
        for pick in data.draw(st.lists(st.integers(0, 1 << 30), min_size=1,
                                       max_size=4)):
            codes[pick % len(codes)] ^= 1 << (pick >> 20) % 8
        try:
            out = fastdecode.decode_lanes(bytes(codes), code, enc.table, n)
        except ValueError:
            return
        assert out.shape == (n,) and out.dtype == np.int32
        # Anchors pin every segment boundary, so a stream the kernel
        # accepts is one that each lane's bit-serial decode accepts,
        # with the same symbols.
        oracle, offset = [], 0
        for lane, size in zip(enc.lanes,
                              huffman.lane_sizes(n, n_lanes).tolist()):
            end = offset + len(lane.data)
            flipped = PackedBits(bytes(codes[offset:end]), lane.n_bits)
            oracle.append(decode_ranks_ref(flipped, code, size))
            offset = end
        np.testing.assert_array_equal(out, np.concatenate(oracle))


    @pytest.mark.parametrize("max_len", (6, 17, 24))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_flipped_single_streams_accepted_alike(self, max_len, data):
        """Both routes accept exactly the same streams: a flipped
        single stream decodes to the same symbols, or raises
        ``ValueError``, whichever route reads it."""
        code = data.draw(codes_of_depth(max_len))
        n = data.draw(st.integers(1, 3000))
        values = _values(code, n, data.draw(st.integers(0, 2**32 - 1)))
        packed = huffman.encode(values, code)
        stream = bytearray(packed.data)
        for pick in data.draw(st.lists(st.integers(0, 1 << 30), min_size=1,
                                       max_size=4)):
            stream[pick % len(stream)] ^= 1 << (pick >> 20) % 8
        flipped = PackedBits(bytes(stream), packed.n_bits)
        outcomes = []
        for decode in _routes(code, flipped, n):
            try:
                outcomes.append(decode().tolist())
            except ValueError:
                outcomes.append(None)
        assert outcomes == [outcomes[-1]] * len(outcomes)


def test_segment_layout_rejects_inconsistent_table():
    code = _code_from_lengths([1, 2, 3, 3])
    values = _values(code, 100, seed=1)
    enc = huffman.encode_lanes(values, code, 2, 8)
    codes = concat_streams(list(enc.lanes))
    short = LaneTable(
        n_lanes=2,
        anchor_stride=8,
        lane_bits=enc.table.lane_bits,
        anchors=(enc.table.anchors[0][:-1], enc.table.anchors[1]),
    )
    with pytest.raises(ValueError, match="anchor count"):
        fastdecode.decode_lanes(codes, code, short, values.size)
