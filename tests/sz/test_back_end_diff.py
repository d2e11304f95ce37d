"""Differential tests: the slab-wise SZ decompress against the
whole-array reader it replaced.

``SZCompressor.decompress`` turns the Huffman lanes into one stream of
symbol ranks and walks slabs of axis-0 planes from there straight to
the output field (``predictors.reconstruct``).  The oracle is the
original chain, ``tests/oracles.py::decompress_ref``: symbol values,
``residuals_from_codes``, ``lorenzo_reconstruct``/``mean_reconstruct``/
the full regression grid and ``grid_reconstruct``, each over the whole
field.  Every test demands bit-identical output (or the same
``ValueError`` text).  The memory tests pin what the slabs save in both
directions: a compress holds the int64 grid and ``uint16`` codes, a
decompress the ranks and the output.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.datasets import generate
from repro.sz import SZCompressor, blocks, huffman, ieee754, intcodec
from repro.sz import compressor as szc
from repro.sz.compressor import SZFrame
from repro.sz.quantizer import SLAB_POINTS, ErrorBound
from tests.oracles import decode_codes_ref, decompress_ref

PREDICTORS = ("lorenzo", "mean", "regression")


def _field(shape, dtype=np.float32, seed=0):
    """Smooth along every axis, with enough noise that each predictor
    leaves some points unpredictable at the bounds used here."""
    rng = np.random.default_rng(seed)
    field = rng.standard_normal(shape)
    for axis in range(len(shape)):
        field = np.cumsum(field, axis=axis) / 4.0
    return (field + 0.01 * rng.standard_normal(shape)).astype(dtype)


def _assert_same(frame, comp=None):
    comp = comp or SZCompressor()
    out = comp.decompress(frame)
    ref = decompress_ref(frame)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()
    return out


def _meta(frame):
    return SZCompressor.parse_meta(frame.sections["meta"])


def _slab_edges(shape):
    plane = int(np.prod(shape[1:]))
    per = max(1, SLAB_POINTS // plane)
    return [lo * plane for lo in range(per, shape[0], per)]


# ---------------------------------------------------------------------------
# Shapes, dtypes and predictors
# ---------------------------------------------------------------------------

# Axis-0 planes below, equal to and above a slab, in 1-4 D.
SHAPES = [
    (SLAB_POINTS + 3,),              # 1-D: one-point planes
    (3, SLAB_POINTS),                # plane == slab
    (2, SLAB_POINTS + 5),            # plane > slab
    (41, 60, 70),                    # below
    (3, 128, 256),                   # equal
    (3, 190, 190),                   # above
    (7, 9, 40, 40),                  # below
    (3, 2, 128, 128),                # equal
    (2, 3, 100, 120),                # above
    (1, 1, 1),
]


@pytest.mark.parametrize("predictor", PREDICTORS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_matches_whole_array_reader(shape, dtype, predictor):
    data = _field(shape, dtype, seed=len(shape))
    comp = SZCompressor(1e-3, predictor=predictor, block_size=4)
    frame = comp.compress(data)
    assert frame.stats.predictor == predictor
    out = _assert_same(frame, comp)
    assert np.max(np.abs(out.astype(np.float64) - data)) <= 1e-3


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_auto_selection_frames(predictor):
    """Frames whose predictor was picked by ``auto``."""
    from repro.datasets import generate

    cases = {"lorenzo": ("t", 1e-4), "mean": ("nyx", 1e-4),
             "regression": ("wf48", 1e-6)}
    name, eb = cases[predictor]
    frame = SZCompressor(eb).compress(np.asarray(generate(name, size="tiny")))
    assert frame.stats.predictor == predictor
    _assert_same(frame)


# ---------------------------------------------------------------------------
# Frame versions and lane layouts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("predictor", PREDICTORS)
@pytest.mark.parametrize("n", [huffman.SELF_SYNC_MIN_VALUES - 1,
                               huffman.SELF_SYNC_MIN_VALUES])
def test_v2_frames_both_sides_of_self_sync(n, predictor):
    """v2 frames below the self-synchronizing threshold go through the
    scalar loop, from it up through the lane kernel; both feed ranks."""
    frame = SZCompressor(1e-3, predictor=predictor).compress(_field((n,), seed=n))
    assert _meta(frame)["version"] == 2
    _assert_same(frame)


def _lane_quotas(frame):
    info = _meta(frame)
    n = int(np.prod(info["shape"]))
    _, table = huffman.deserialize_lane_tree(frame.sections["tree"], n)
    quotas = []
    for size in huffman.lane_sizes(n, table.n_lanes).tolist():
        full, rest = divmod(size, table.anchor_stride)
        quotas += [table.anchor_stride] * full + ([rest] if rest else [])
    return table, quotas


@pytest.mark.parametrize("predictor", PREDICTORS)
@pytest.mark.parametrize("layout", ["one-lane", "short-last", "all-full",
                                    "lanes-below-stride"])
def test_v3_lane_layouts(layout, predictor):
    lanes, stride, shape = {
        "one-lane": (1, 512, (9, 50, 50)),
        "short-last": (4, 512, (9, 50, 51)),
        "all-full": (4, 300, (8, 30, 50)),       # 12,000 = 4 x 10 x 300
        "lanes-below-stride": (6, 4096, (5, 40, 41)),
    }[layout]
    comp = SZCompressor(1e-3, predictor=predictor, huffman_lanes=lanes,
                        anchor_stride=stride)
    frame = comp.compress(_field(shape, seed=lanes))
    assert _meta(frame)["version"] == 3
    table, quotas = _lane_quotas(frame)
    assert table.n_lanes == lanes
    short = [q for q in quotas if q != max(quotas)]
    if layout == "all-full":
        assert not short
    elif layout == "lanes-below-stride":
        assert max(quotas) < stride and len(quotas) == lanes
    else:
        assert short
    _assert_same(frame, comp)


# ---------------------------------------------------------------------------
# Unpredictable points and side channels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("predictor", PREDICTORS)
@pytest.mark.parametrize("shape", [(5 * SLAB_POINTS // 1000 + 1, 1000),
                                   (4, 150, 150), (3 * SLAB_POINTS + 7,)],
                         ids=str)
def test_unpredictable_points_on_slab_edges(shape, predictor):
    """Spikes in the first, a middle and the last slab, on both sides of
    every slab edge, and at the first and last point."""
    data = _field(shape, seed=3).reshape(-1)
    n = data.size
    edges = _slab_edges(shape)
    assert edges
    spots = {0, n - 1, n // 2}
    for edge in edges:
        spots |= {edge - 1, edge}
    spots = sorted(spots)
    # Distinct heights, so no Lorenzo stencil cancels two spikes.
    data[spots] += 1e4 * np.arange(1, len(spots) + 1)
    data = data.reshape(shape)
    comp = SZCompressor(1e-3, predictor=predictor, block_size=4)
    frame = comp.compress(data)
    codes = decode_codes_ref(frame)
    assert (codes[spots] == 0).all()
    out = _assert_same(frame, comp)
    assert np.max(np.abs(out.astype(np.float64) - data)) <= 1e-3


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_exact_channel_frames(predictor):
    """A bound below the float32 ulp leaves points in the exact channel."""
    rng = np.random.default_rng(11)
    data = (1.0 + 1e-3 * rng.standard_normal((4, 90, 100))).astype(np.float32)
    comp = SZCompressor(3.1e-8, predictor=predictor)
    frame = comp.compress(data)
    assert frame.stats.exact_count > 0
    _assert_same(frame, comp)


@pytest.mark.parametrize("predictor", PREDICTORS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pw_rel_frames(predictor, dtype):
    rng = np.random.default_rng(12)
    shape = (6, 70, 80)
    data = (rng.standard_normal(shape)
            * np.exp(rng.uniform(-8.0, 8.0, shape))).astype(dtype)
    data.reshape(-1)[rng.choice(data.size, 300, replace=False)] = 0.0
    comp = SZCompressor(ErrorBound(1e-2, "pw_rel"), predictor=predictor)
    frame = comp.compress(data)
    assert _meta(frame)["pw_rel"]
    _assert_same(frame, comp)


# ---------------------------------------------------------------------------
# Errors: the same ValueError text as the whole-array reader
# ---------------------------------------------------------------------------

def _with_unpred(frame, keep, n_meta):
    """``frame`` with its unpredictable channel cut to ``keep`` values
    (or grown by repeating the last) and the meta count set to
    ``n_meta``."""
    info = _meta(frame)
    lorenzo = info["predictor"] == "lorenzo"
    section = frame.sections["unpred"]
    values = (intcodec.byteplane_decode(section) if lorenzo
              else ieee754.ieee754_decode(section))
    values = np.resize(values, keep) if keep > values.size else values[:keep]
    sections = dict(frame.sections)
    sections["unpred"] = (intcodec.byteplane_encode(values) if lorenzo
                          else ieee754.ieee754_encode(values))
    fields = list(szc._META.unpack_from(frame.sections["meta"]))
    fields[-1] = n_meta
    sections["meta"] = (szc._META.pack(*fields)
                        + frame.sections["meta"][szc._META.size:])
    return SZFrame(sections=sections, stats=frame.stats)


def _error_text(fn, frame):
    with pytest.raises(ValueError) as info:
        fn(frame)
    return str(info.value)


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_mismatched_unpredictable_counts_raise_the_same_error(predictor):
    shape = (3, 130, 140)
    data = _field(shape, seed=5).reshape(-1)
    data[[0, SLAB_POINTS - 1, SLAB_POINTS, data.size - 1]] += 1e4
    comp = SZCompressor(1e-3, predictor=predictor, block_size=4)
    frame = comp.compress(data.reshape(shape))
    n = frame.stats.unpredictable_count
    assert n >= 4
    cases = {
        # Channel and meta agree; the stream has one sentinel more/less.
        "stream-more": _with_unpred(frame, n - 1, n - 1),
        "stream-fewer": _with_unpred(frame, n + 1, n + 1),
        # Channel disagrees with meta.
        "channel-short": _with_unpred(frame, n - 1, n),
        "meta-short": _with_unpred(frame, n, n - 1),
    }
    texts = {}
    for name, bad in cases.items():
        texts[name] = _error_text(comp.decompress, bad)
        assert texts[name] == _error_text(decompress_ref, bad), name
    assert texts["stream-more"] == (
        f"stream has {n} unpredictable points but {n - 1} stored residuals"
    )
    assert texts["stream-fewer"] == (
        f"stream has {n} unpredictable points but {n + 1} stored residuals"
    )
    assert texts["channel-short"] == "unpredictable channel does not match meta"


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_stored_points_without_sentinels_raise_the_same_error(predictor):
    """A code with no sentinel symbol at all, but a channel (and meta)
    that claim one unpredictable point."""
    comp = SZCompressor(1.0, predictor=predictor)
    frame = comp.compress(_field((6, 40, 40), seed=6))
    assert frame.stats.unpredictable_count == 0
    assert not (decode_codes_ref(frame) == 0).any()
    info = _meta(frame)
    one = (intcodec.byteplane_encode(np.array([5], np.int64))
           if info["predictor"] == "lorenzo"
           else ieee754.ieee754_encode(np.array([5.0], np.float32)))
    fields = list(szc._META.unpack_from(frame.sections["meta"]))
    fields[-1] = 1
    sections = dict(frame.sections, unpred=one, meta=(
        szc._META.pack(*fields) + frame.sections["meta"][szc._META.size:]))
    bad = SZFrame(sections=sections, stats=frame.stats)
    text = _error_text(comp.decompress, bad)
    assert text == _error_text(decompress_ref, bad)
    assert text == "stream has 0 unpredictable points but 1 stored residuals"


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def _peak(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="module")
def large_field():
    """2^21 float32 points (8 MB)."""
    return _field((128, 128, 128), seed=21)


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_decompress_peak_memory(large_field, predictor):
    """The whole-array reader peaked at 9-10x the field; slab-wise, a
    decompress holds the ranks, the output and cache-sized buffers
    (regression evaluates each slab's planes from the coefficients)."""
    comp = SZCompressor(1e-3, predictor=predictor)
    frame = comp.compress(large_field)
    out, peak = _peak(comp.decompress, frame)
    assert out.shape == large_field.shape
    assert peak <= 3.5 * large_field.nbytes, peak / large_field.nbytes


def test_pw_rel_decompress_peak_memory(large_field):
    """The pw_rel inverse runs slab by slab into the output after the
    ranks are released: the float64 working field, the output and
    buffers (the whole-array inverse read 9.5x)."""
    comp = SZCompressor(ErrorBound(1e-2, "pw_rel"), predictor="mean")
    frame = comp.compress(large_field)
    out, peak = _peak(comp.decompress, frame)
    assert out.tobytes() == decompress_ref(frame).tobytes()
    assert peak <= 4 * large_field.nbytes, peak / large_field.nbytes


@pytest.mark.parametrize("predictor", ["lorenzo", "mean"])
def test_compress_peak_memory(large_field, predictor):
    """A compress holds the int64 grid (2x a float32 field), the uint16
    codes (0.5x) and cache-sized slabs; the whole-grid writer read
    7.2-7.7x with its full residual and int64 code arrays."""
    comp = SZCompressor(1e-3, predictor=predictor)
    frame, peak = _peak(comp.compress, large_field)
    assert frame.stats.predictor == predictor
    assert peak <= 3 * large_field.nbytes, peak / large_field.nbytes


@pytest.mark.parametrize("predictor", ["regression", "auto"])
def test_compress_peak_memory_with_fit(large_field, predictor):
    """A regression fit adds its float64 block matrix, 8 bytes per
    padded point, and nothing else of the grid's size (the whole-grid
    writer read 10.0x forced and 7.2x under ``auto``)."""
    comp = SZCompressor(1e-3, predictor=predictor)
    frame, peak = _peak(comp.compress, large_field)
    padded = math.prod(blocks.padded_shape(large_field.shape, comp.block_size))
    assert peak <= 3 * large_field.nbytes + 8 * padded, peak / large_field.nbytes


@pytest.mark.parametrize("name,bar", [("nyx", 4.5), ("t", 5.5), ("cloudf48", 4.5)])
def test_compress_peak_memory_medium_fields(name, bar):
    """The medium stand-ins under ``auto`` at 1e-4: the grid plus the
    block matrix of the regression candidate's fit, which t's 4-D
    padding makes 1.65x its point count (the whole-grid writer read
    7.7x on nyx, 10.7x on t and 8.2x on cloudf48)."""
    data = np.asarray(generate(name, size="medium"), dtype=np.float32)
    frame, peak = _peak(SZCompressor(1e-4).compress, data)
    assert peak <= bar * data.nbytes, peak / data.nbytes
