"""Quick-bench: the CTR fast path vs Algorithm-1 CBC.

Standalone (no pytest plugins): times the scalar-chained CBC path
against the batched CTR path end-to-end on the encryption-heavy
Cmpr-Encr scheme over a fig6-size field, the raw keystream generator
monolithic vs segmented, and the keystream prefetcher's
compression/encryption overlap.  Writes ``BENCH_crypto.json`` at the
repo root (or ``REPRO_BENCH_OUT``).  CI runs this as a smoke check at
tiny dims; the acceptance bar — CTR compress+encrypt >= 2x CBC — only
applies to full-size runs (``REPRO_BENCH_DIMS`` unset).

Correctness is asserted at every size: segmented keystream must be
bit-identical to monolithic, prefetched CTR containers must be
bit-identical to serial ones, and seeded CBC containers must not drift
between runs.

Usage::

    PYTHONPATH=src python benchmarks/bench_crypto.py

Environment knobs: ``REPRO_BENCH_REPEATS`` (default 3, best-of),
``REPRO_BENCH_DATASET`` (default ``t``), ``REPRO_BENCH_DIMS``
(comma-separated; setting it waives the full-size speedup bar so CI
can smoke-test at tiny sizes) and ``REPRO_BENCH_OUT`` (output path
override).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core import trace
from repro.core.pipeline import SecureCompressor
from repro.crypto import modes
from repro.crypto.keyschedule import expand_key
from repro.datasets import generate

EB = 1e-5  # matches bench_ablation_modes: encryption-heavy regime
DATASET = os.environ.get("REPRO_BENCH_DATASET", "t")
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
FULL_SIZE = "REPRO_BENCH_DIMS" not in os.environ
DIMS = (
    None
    if FULL_SIZE
    else tuple(int(d) for d in os.environ["REPRO_BENCH_DIMS"].split(","))
)
OUT_PATH = os.environ.get(
    "REPRO_BENCH_OUT",
    os.path.join(os.path.dirname(__file__), "..", "BENCH_crypto.json"),
)
KEY = bytes(range(16))


def _best_seconds(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> dict:
    # fig6-size: the full "small" registry preset, as used by the
    # bandwidth figure at REPRO_BENCH_SIZE=small.
    field = np.asarray(
        generate(DATASET, dims=DIMS, size="small"), dtype=np.float32
    )
    field_mb = field.nbytes / 1e6
    result: dict = {
        "dataset": DATASET,
        "field_mb": round(field_mb, 3),
        "error_bound": EB,
        "repeats": REPEATS,
        "full_size": FULL_SIZE,
        "keystream_mb_per_s": {},
        "end_to_end_s": {},
        "stage_encrypt_s": {},
        "prefetch": {},
    }

    # ------------------------------------------------------------------
    # Raw keystream: monolithic batch vs bounded segments.  Segmenting
    # caps peak memory at ~128 KiB of counter blocks per batch; the
    # bytes must not change.
    # ------------------------------------------------------------------
    ek = expand_key(KEY)
    nonce = b"benchpfx"
    n_bytes = max(1, min(field.nbytes, 4 << 20))
    mono = modes.ctr_keystream(ek, nonce, n_bytes, segment_blocks=1 << 30)
    seg = modes.ctr_keystream(ek, nonce, n_bytes)
    assert np.array_equal(mono, seg), (
        "keystream drift: segmented stream differs from monolithic"
    )
    ks_mb = n_bytes / 1e6
    secs = _best_seconds(
        lambda: modes.ctr_keystream(ek, nonce, n_bytes, segment_blocks=1 << 30)
    )
    result["keystream_mb_per_s"]["monolithic"] = round(ks_mb / secs, 2)
    secs = _best_seconds(lambda: modes.ctr_keystream(ek, nonce, n_bytes))
    result["keystream_mb_per_s"]["segmented"] = round(ks_mb / secs, 2)
    result["keystream_segment_blocks"] = modes.CTR_SEGMENT_BLOCKS

    # ------------------------------------------------------------------
    # End-to-end compress+encrypt: Cmpr-Encr encrypts its whole
    # compressed stream, so this is where CBC's sequential chaining
    # hurts and where the CTR prefetcher's overlap pays.
    # ------------------------------------------------------------------
    for mode in ("cbc", "ctr"):
        sc = SecureCompressor("cmpr_encr", EB, key=KEY, cipher_mode=mode)
        # Traced warm-up: sizes the ciphertext, and its encrypt leaf
        # is the stage time reported below.
        warm = trace.Tracer()
        res = sc.compress(field, tracer=warm)
        result["end_to_end_s"][mode] = round(
            _best_seconds(lambda: sc.compress(field)), 4
        )
        result["stage_encrypt_s"][mode] = round(
            trace.stage_seconds(warm).get("encrypt", 0.0), 4
        )
        if mode == "cbc":
            result["encrypted_mb"] = round(res.encrypted_bytes / 1e6, 3)
    result["ctr_speedup_end_to_end"] = round(
        result["end_to_end_s"]["cbc"] / result["end_to_end_s"]["ctr"], 2
    )
    if FULL_SIZE:
        assert result["ctr_speedup_end_to_end"] >= 2.0, (
            "CTR fast path regressed: end-to-end compress+encrypt is "
            f"only {result['ctr_speedup_end_to_end']}x CBC (bar: 2x)"
        )

    # ------------------------------------------------------------------
    # Prefetch overlap: a traced CTR compress exposes how much keystream
    # generation hid under the SZ stages, and prefetch on/off must be
    # bit-identical under the same seeded nonce.
    # ------------------------------------------------------------------
    tr = trace.Tracer()
    sc = SecureCompressor("cmpr_encr", EB, key=KEY, cipher_mode="ctr")
    before = trace.counters_snapshot()
    sc.compress(field, tracer=tr)
    after = trace.counters_snapshot()
    root = tr.export()["roots"][0]
    result["prefetch"]["overlap_ms"] = round(
        root["attrs"].get("keystream_overlap_ms", 0.0), 3
    )
    result["prefetch"]["wait_ms"] = round(
        root["attrs"].get("keystream_wait_ms", 0.0), 3
    )
    for counter in ("aes.blocks_keystream", "aes.keystream_segments",
                    "aes.keystream_prefetch_ms"):
        result["prefetch"][counter] = int(
            after.get(counter, 0) - before.get(counter, 0)
        )
    assert result["prefetch"]["aes.keystream_segments"] >= 1

    def _seeded(prefetch: bool) -> bytes:
        return SecureCompressor(
            "cmpr_encr", EB, key=KEY, cipher_mode="ctr",
            random_state=np.random.default_rng(11),
            allow_nonce_reuse=True,  # bench-only reproducibility
            keystream_prefetch=prefetch,
        ).compress(field).container

    assert _seeded(True) == _seeded(False), (
        "prefetch drift: pipelined keystream changed the CTR container"
    )
    result["prefetch"]["bit_identical_to_serial"] = True

    # ------------------------------------------------------------------
    # CBC frame drift: Algorithm-1 fidelity means seeded CBC containers
    # are exactly reproducible run to run (the format-stability digests
    # pin them against the seed; this guards against in-process drift).
    # ------------------------------------------------------------------
    def _cbc_seeded() -> bytes:
        return SecureCompressor(
            "cmpr_encr", EB, key=KEY,
            random_state=np.random.default_rng(11),
        ).compress(field).container

    assert _cbc_seeded() == _cbc_seeded(), (
        "CBC frame drift: seeded container changed between runs"
    )
    result["cbc_frames_deterministic"] = True

    with open(os.path.abspath(OUT_PATH), "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
    return result


if __name__ == "__main__":
    main()
