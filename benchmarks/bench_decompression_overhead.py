"""Extension — decompression-side time overhead per scheme.

The paper's Tables III-V cover compression; Sec. V-D notes that
decompression bandwidth exceeds compression ("mathematical computations
required in the compression process ... are not present in
decompression").  This extension produces the decompression analog of
the overhead tables using the same paired, modeled-AES methodology:
scheme unprotect + SZ decode versus plain unprotect + SZ decode on the
*same* container contents.
"""

import numpy as np

from repro.bench.harness import (
    EBS,
    KEY,
    aes_calibration,
    dataset_cache,
    model_aes_mb_s,
)
from repro.bench.tables import format_grid
from repro.core import trace
from repro.core.schemes import get_scheme
from repro.crypto.aes import AES128
from repro.sz.compressor import SZCompressor, SZFrame
from repro.sz.lossless import DEFAULT_LEVEL

from conftest import BENCH_REPEATS, BENCH_SIZE, TABLE_DATASETS, emit


def _paired_decompress_overhead(data, scheme_name, eb, repeats):
    """Median of 100 * t_scheme_decode / t_plain_decode (paired)."""
    scheme = get_scheme(scheme_name)
    base = get_scheme("none")
    cipher = AES128(KEY)
    iv = bytes(16)
    _, dec_rate = aes_calibration()
    sz = SZCompressor(eb)
    frame = sz.compress(np.asarray(data))
    protected = scheme.protect(
        dict(frame.sections), cipher, iv, "cbc", DEFAULT_LEVEL
    )
    plain = base.protect(dict(frame.sections), None, iv, "cbc", DEFAULT_LEVEL)
    ratios = []
    for _ in range(repeats):
        scheme_tr = trace.Tracer()
        sections = scheme.unprotect(protected, cipher, iv, "cbc", scheme_tr)
        sz.decompress(SZFrame(sections=sections, stats=frame.stats))
        base_tr = trace.Tracer()
        base_sections = base.unprotect(plain, None, iv, "cbc", base_tr)
        decode_tr = trace.Tracer()
        sz.decompress(
            SZFrame(sections=base_sections, stats=frame.stats), decode_tr
        )
        # decode work is identical
        shared = sum(trace.stage_seconds(decode_tr).values())
        t_s = trace.stage_seconds(scheme_tr)
        t_b = trace.stage_seconds(base_tr)
        measured_dec = t_s.get("decrypt", 0.0)
        modeled_dec = measured_dec * dec_rate / model_aes_mb_s()
        t_scheme = shared + t_s.get("lossless", 0.0) + modeled_dec
        t_base = shared + t_b.get("lossless", 0.0)
        ratios.append(100.0 * t_scheme / t_base)
    return float(np.median(ratios))


def test_decompression_overhead(eb_labels, benchmark):
    tables = []
    means = {}
    for scheme in ("cmpr_encr", "encr_quant", "encr_huffman"):
        rows = []
        for name in TABLE_DATASETS:
            data = dataset_cache(name, size=BENCH_SIZE)
            rows.append([
                _paired_decompress_overhead(
                    data, scheme, eb, max(BENCH_REPEATS, 3)
                )
                for eb in EBS
            ])
        tables.append(
            format_grid(
                f"Decompression time overhead for {scheme} "
                f"(%, paired, modeled hardware AES, size={BENCH_SIZE})",
                list(TABLE_DATASETS), eb_labels, rows,
            )
        )
        means[scheme] = sum(v for row in rows for v in row) / (
            len(TABLE_DATASETS) * len(EBS)
        )
    emit("decompression_overhead", "\n\n".join(tables))

    # Decryption is batched and the decode stage dominates, so every
    # scheme stays close to the plain-SZ baseline.
    for scheme, mean in means.items():
        assert 95.0 < mean < 108.0, scheme

    data = dataset_cache("t", size=BENCH_SIZE)
    benchmark.pedantic(
        lambda: _paired_decompress_overhead(data, "cmpr_encr", 1e-4, 1),
        rounds=3, iterations=1,
    )
