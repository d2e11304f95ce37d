"""Quick-bench: Huffman encode + decode throughput per lane count.

Standalone (no pytest plugins): times single-stream decode
(``huffman.decode``, which sends a stream this long through the lane
kernel by self-synchronization) against the scalar loop it replaced
for long streams (``huffman._scan_ranks``, which still reads streams
of fewer than ``SELF_SYNC_MIN_VALUES`` symbols) and against the
vectorized multi-lane kernel, the
reference bit-plane packer (``pack_codes_ref``) against the word-packed
encode kernel, the symbol histogram ``huffman_build`` takes
(``quantizer.code_histogram``) against the ``np.unique`` sort it
replaced, the tree build, both its length computation alone and
all the work of the traced ``huffman_build`` span, and the whole
``SZCompressor.decompress`` of the frame (CPU ms and its tracemalloc
peak over the field's bytes), on a >= 4 MB float32 field.  The
reference implementations come from ``tests/oracles.py``.  Writes
``BENCH_huffman.json`` at the repo root (or ``REPRO_BENCH_OUT``).  CI
runs this at full size; the acceptance bars are a >= 5x decode speedup
at K = 16 over the scalar loop, a >= 5x single-stream decode speedup
over the scalar loop and a decompress peak of at most 3.5x the field
(both asserted at full size: a ratio of two timings on one host, and
a ratio of bytes, so they gate every change whatever the runner's
speed), and a >= 2x `huffman_encode` throughput with ~8x lower peak
allocation over the reference packer.  The file opens with the
``repro-bench/1`` provenance header (:mod:`provenance`).

Decode columns are the median of ``time.process_time`` over the runs
(CPU seconds: on a shared host, wall-clock best-of moved ~45% between
runs of unchanged code); the other columns are wall-clock best-of.

Usage::

    PYTHONPATH=src python benchmarks/bench_huffman_lanes.py

Environment knobs: ``REPRO_BENCH_REPEATS`` (default 3; runs per
column),
``REPRO_BENCH_DATASET`` (default ``nyx``), ``REPRO_BENCH_DIMS``
(comma-separated, default ``128,128,128``; setting it waives the 4 MB
floor and the single-stream speedup bar, so CI can smoke-test at tiny
sizes) and ``REPRO_BENCH_OUT`` (output path override).
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc

import numpy as np
from provenance import header

from repro.datasets import generate
from repro.sz import fastdecode, huffman, quantizer
from repro.sz.bitstream import concat_streams, pack_codes
from repro.sz.compressor import SZCompressor

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
from tests.oracles import huffman_lengths_ref, pack_codes_ref

LANE_COUNTS = (1, 4, 16)
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
DATASET = os.environ.get("REPRO_BENCH_DATASET", "nyx")
DIMS = tuple(
    int(d) for d in os.environ.get("REPRO_BENCH_DIMS", "128,128,128").split(",")
)
OUT_PATH = os.environ.get(
    "REPRO_BENCH_OUT",
    os.path.join(os.path.dirname(__file__), "..", "BENCH_huffman.json"),
)


def _best_seconds(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _median_cpu_seconds(fn, repeats: int = REPEATS) -> float:
    """Median process CPU time of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        t0 = time.process_time()
        fn()
        times.append(time.process_time() - t0)
    return float(np.median(times))


def _peak_mb(fn) -> float:
    """Peak tracemalloc allocation of one ``fn()`` call, in MB."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def main() -> dict:
    # 128^3 float32 = 8 MB: comfortably past the 4 MB acceptance floor.
    field = np.asarray(generate(DATASET, dims=DIMS), dtype=np.float32)
    field_mb = field.nbytes / 1e6
    if "REPRO_BENCH_DIMS" not in os.environ:
        assert field.nbytes >= 4 * 1024 * 1024, "bench field must be >= 4 MB"

    # Recover the real quantization-code stream the codec faces.
    comp = SZCompressor(1e-4)
    frame = comp.compress(field)
    info = comp.parse_meta(frame.sections["meta"])
    n = int(np.prod(info["shape"]))
    if info["version"] >= 3:
        code, table = huffman.deserialize_lane_tree(frame.sections["tree"], n)
        flat_codes = code.symbols[fastdecode.decode_lanes(
            frame.sections["codes"], code, table, n
        )]
    else:
        code = huffman.deserialize_tree(frame.sections["tree"])
        flat_codes = huffman.decode(
            huffman.PackedBits(frame.sections["codes"], info["n_bits"]), code, n
        )

    result: dict = {
        "header": header("huffman", field.shape),
        "dataset": DATASET,
        "field_mb": round(field_mb, 3),
        "n_symbols": n,
        "repeats": REPEATS,
        "decode_timing": "median process_time",
        "histogram_ms": {},
        "tree_build_ms": {},
        "encode_mb_per_s": {},
        "encode_peak_alloc_mb": {},
        "decode_mb_per_s": {},
        "decode_msym_per_s": {},
        "decompress": {},
    }

    # ------------------------------------------------------------------
    # Histogram: the dense count over the 2R quantization states that
    # huffman_build runs vs the call it replaced, np.unique with an
    # inverse nothing read (its stable argsort is the cost), on the
    # frame's real codes (identical symbols and counts are pinned by
    # tests/sz/test_histogram_diff.py).
    # ------------------------------------------------------------------
    symbols, counts = quantizer.code_histogram(flat_codes)
    secs = _best_seconds(lambda: np.unique(
        flat_codes, return_inverse=True, return_counts=True
    ))
    result["histogram_ms"]["unique_inverse_ref"] = round(secs * 1e3, 3)
    secs = _best_seconds(lambda: quantizer.code_histogram(flat_codes))
    result["histogram_ms"]["bincount"] = round(secs * 1e3, 3)
    result["histogram_ms"]["speedup"] = round(
        result["histogram_ms"]["unique_inverse_ref"]
        / max(result["histogram_ms"]["bincount"], 1e-9),
        2,
    )

    # ------------------------------------------------------------------
    # Tree build: the retired heapq construction vs the two-queue O(n)
    # build, on the frame's real frequency table (bit-identical output
    # is pinned by tests/sz/test_huffman_diff.py).
    # ------------------------------------------------------------------
    result["alphabet_size"] = int(symbols.size)
    result["max_code_len"] = int(code.lengths.max())
    secs = _best_seconds(lambda: huffman_lengths_ref(counts))
    result["tree_build_ms"]["heapq_ref"] = round(secs * 1e3, 3)
    secs = _best_seconds(lambda: huffman._huffman_lengths(counts))
    result["tree_build_ms"]["two_queue"] = round(secs * 1e3, 3)
    result["tree_build_ms"]["speedup"] = round(
        result["tree_build_ms"]["heapq_ref"]
        / max(result["tree_build_ms"]["two_queue"], 1e-9),
        2,
    )
    # Exactly the work of a compress's traced huffman_build span: the
    # histogram of the frame's codes and the whole build_code (sort,
    # two-queue lengths, length limit, canonical codewords).  The
    # two_queue row above is only the length computation inside it.
    secs = _best_seconds(
        lambda: huffman.build_code(*quantizer.code_histogram(flat_codes))
    )
    result["tree_build_ms"]["huffman_build_span"] = round(secs * 1e3, 3)

    # ------------------------------------------------------------------
    # The frame-drift guard CI relies on: a repeat compress must not
    # change a single frame byte.
    # ------------------------------------------------------------------
    assert comp.compress(field).sections == frame.sections, (
        "frame drift: repeat compress changed the emitted bytes"
    )

    # ------------------------------------------------------------------
    # Encode: reference bit-plane packer vs the word-packed kernel, on
    # the exact codeword/length tables the compressor emits.
    # ------------------------------------------------------------------
    idx = np.searchsorted(code.symbols, flat_codes)
    codewords = code.codewords[idx]
    lengths = code.lengths[idx].astype(np.int64)
    assert pack_codes(codewords, lengths).data == pack_codes_ref(
        codewords, lengths
    ).data

    secs = _best_seconds(lambda: pack_codes_ref(codewords, lengths))
    result["encode_mb_per_s"]["pack_ref"] = round(field_mb / secs, 2)
    secs = _best_seconds(lambda: pack_codes(codewords, lengths))
    result["encode_mb_per_s"]["pack_word"] = round(field_mb / secs, 2)
    result["encode_peak_alloc_mb"]["pack_ref"] = round(
        _peak_mb(lambda: pack_codes_ref(codewords, lengths)), 2
    )
    result["encode_peak_alloc_mb"]["pack_word"] = round(
        _peak_mb(lambda: pack_codes(codewords, lengths)), 2
    )

    # Full encode_lanes path (lookup + per-lane packing + anchors).
    packed = huffman.encode(flat_codes, code)
    for k in LANE_COUNTS:
        _, stride = huffman.choose_lane_params(n, packed.n_bits)
        secs = _best_seconds(
            lambda: huffman.encode_lanes(flat_codes, code, k, stride)
        )
        result["encode_mb_per_s"][f"lanes_{k}"] = round(field_mb / secs, 2)

    result["encode_speedup_word_vs_ref"] = round(
        result["encode_mb_per_s"]["pack_word"]
        / result["encode_mb_per_s"]["pack_ref"],
        2,
    )
    result["encode_peak_ratio_ref_vs_word"] = round(
        result["encode_peak_alloc_mb"]["pack_ref"]
        / max(result["encode_peak_alloc_mb"]["pack_word"], 1e-9),
        2,
    )

    # ------------------------------------------------------------------
    # Decode: one stream through huffman.decode (the self-synchronizing
    # kernel route at this length) and through the scalar loop, both
    # resolving ranks to values, vs the lane kernel on v3 layouts,
    # which returns stream-ordered symbol ranks (the form the SZ reader
    # consumes).
    # ------------------------------------------------------------------
    for name, decode in (
        ("single_stream", lambda: huffman.decode(packed, code, n)),
        ("single_stream_scalar",
         lambda: code.symbols.take(huffman._scan_ranks(code, packed, n))),
    ):
        assert np.array_equal(decode(), flat_codes)
        secs = _median_cpu_seconds(decode)
        result["decode_mb_per_s"][name] = round(field_mb / secs, 2)
        result["decode_msym_per_s"][name] = round(n / secs / 1e6, 2)

    for k in LANE_COUNTS:
        _, stride = huffman.choose_lane_params(n, packed.n_bits)
        enc = huffman.encode_lanes(flat_codes, code, k, stride)
        codes_bytes = concat_streams(list(enc.lanes))
        table = enc.table
        out = fastdecode.decode_lanes(codes_bytes, code, table, n)
        assert np.array_equal(code.symbols[out], flat_codes)
        secs = _median_cpu_seconds(
            lambda: fastdecode.decode_lanes(codes_bytes, code, table, n)
        )
        result["decode_mb_per_s"][f"lanes_{k}"] = round(field_mb / secs, 2)
        result["decode_msym_per_s"][f"lanes_{k}"] = round(n / secs / 1e6, 2)

    decode_mb = result["decode_mb_per_s"]
    result["speedup_k16_vs_single"] = round(
        decode_mb["lanes_16"] / decode_mb["single_stream_scalar"], 2
    )
    result["speedup_single_vs_scalar"] = round(
        decode_mb["single_stream"] / decode_mb["single_stream_scalar"], 2
    )
    if "REPRO_BENCH_DIMS" not in os.environ:
        assert result["speedup_single_vs_scalar"] >= 5, (
            "single-stream decode must run >= 5x the scalar loop, read "
            f"{result['speedup_single_vs_scalar']}x"
        )

    # ------------------------------------------------------------------
    # Decompress: the whole SZCompressor.decompress of the frame (lane
    # decode to ranks, then the slab-wise reconstruction), in CPU ms,
    # and its tracemalloc peak over the field's bytes.
    # ------------------------------------------------------------------
    out = comp.decompress(frame)
    assert np.max(np.abs(out.astype(np.float64) - field)) <= 1e-4
    secs = _median_cpu_seconds(lambda: comp.decompress(frame))
    result["decompress"]["cpu_ms"] = round(secs * 1e3, 3)
    result["decompress"]["mb_per_cpu_s"] = round(field_mb / secs, 2)
    result["decompress"]["peak_over_field"] = round(
        _peak_mb(lambda: comp.decompress(frame)) / field_mb, 3
    )
    if "REPRO_BENCH_DIMS" not in os.environ:
        assert result["decompress"]["peak_over_field"] <= 3.5, (
            "decompress must peak at <= 3.5x the field under tracemalloc, "
            f"read {result['decompress']['peak_over_field']}x"
        )

    with open(os.path.abspath(OUT_PATH), "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
    return result


if __name__ == "__main__":
    main()
