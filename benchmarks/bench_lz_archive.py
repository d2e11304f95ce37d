"""Quick-bench: LZ7H codec throughput/CR vs zlib, plus archive dedup.

Standalone (no pytest plugins): times ``repro.sz.lz77`` against zlib
level 6 on three archive-shaped corpora (repetitive text log, periodic
checkpoint shard, incompressible noise), then smoke-tests the SECB v2
archive life cycle — mixed corpus in, duplicated shard stored once,
``verify --deep`` clean, ``gc`` compacts after a remove.  Writes
``BENCH_lz.json`` at the repo root (or ``REPRO_BENCH_OUT``) under the
``repro-bench/1`` provenance header (:mod:`provenance`; its ``dims``
are the archived field's).  CI runs this as a smoke check; the
acceptance bars are a round-trip-exact codec, an LZ7H compression
ratio >= 0.5x of zlib's on every corpus (>= 1.0x on the long-range
periodic one, where the 64 KiB window is the point), and an archive
dedup ratio >= 1.5 on the mixed corpus.

Usage::

    PYTHONPATH=src python benchmarks/bench_lz_archive.py

Environment knobs: ``REPRO_BENCH_REPEATS`` (default 3, best-of),
``REPRO_BENCH_LZ_SCALE`` (corpus size multiplier, default 1) and
``REPRO_BENCH_OUT`` (output path override).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zlib

import numpy as np
from provenance import header

from repro.archive import ArchiveStore
from repro.sz import lz77

REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
SCALE = int(os.environ.get("REPRO_BENCH_LZ_SCALE", "1"))
OUT_PATH = os.environ.get(
    "REPRO_BENCH_OUT",
    os.path.join(os.path.dirname(__file__), "..", "BENCH_lz.json"),
)
KEY = bytes(range(16))
FIELD_DIMS = (64, 64)


def _best_seconds(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _corpora() -> dict:
    log = b"".join(
        b"2026-08-08T12:00:%02d INFO worker-%d step=%d loss=%.6f\n"
        % (i % 60, i % 8, i, 1.0 / (i + 1))
        for i in range(4000 * SCALE)
    )
    # Period ~ 48 KiB: repeats sit beyond zlib's 32 KiB window but
    # inside LZ7H's 64 KiB one — the case the codec exists for.
    unit = np.random.default_rng(7).integers(
        0, 256, 48 * 1024, dtype=np.uint8
    ).tobytes()
    shard = unit * (6 * SCALE)
    noise = np.random.default_rng(11).integers(
        0, 256, 256 * 1024 * SCALE, dtype=np.uint8
    ).tobytes()
    return {"text_log": log, "periodic_shard": shard, "noise": noise}


def main() -> dict:
    result: dict = {
        "header": header("lz", FIELD_DIMS),
        "repeats": REPEATS,
        "scale": SCALE,
        "codec": {},
    }

    for name, data in _corpora().items():
        mb = len(data) / 1e6
        lz_blob = lz77.compress(data)
        assert lz77.decompress(lz_blob) == data, f"{name}: round-trip"
        zl_blob = zlib.compress(data, 6)

        row = {
            "raw_mb": round(mb, 3),
            "cr_lz77h": round(len(data) / len(lz_blob), 2),
            "cr_zlib6": round(len(data) / len(zl_blob), 2),
            "compress_mb_per_s": round(
                mb / _best_seconds(lambda: lz77.compress(data)), 2
            ),
            "decompress_mb_per_s": round(
                mb / _best_seconds(lambda: lz77.decompress(lz_blob)), 2
            ),
            "zlib6_compress_mb_per_s": round(
                mb / _best_seconds(lambda: zlib.compress(data, 6)), 2
            ),
        }
        row["cr_vs_zlib"] = round(row["cr_lz77h"] / row["cr_zlib6"], 2)
        # Acceptance bars: never pathological, and a clear win where
        # the repeats exceed zlib's window.
        assert row["cr_vs_zlib"] >= 0.5, f"{name}: LZ7H CR collapsed"
        if name == "periodic_shard":
            assert row["cr_vs_zlib"] >= 1.0, (
                "long-range dedup regressed below zlib"
            )
        result["codec"][name] = row

    # ------------------------------------------------------------------
    # Archive life cycle on the mixed corpus: duplicated shard stored
    # once, deep verify clean, gc compacts.
    # ------------------------------------------------------------------
    corpora = _corpora()
    field = np.cumsum(
        np.random.default_rng(3).standard_normal(FIELD_DIMS), axis=1
    ).astype(np.float32)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.secb")
        store = ArchiveStore.create(path, key=KEY, cipher_mode="ctr")
        t0 = time.perf_counter()
        store.add_bytes("log", corpora["text_log"], codec="lz77h")
        store.add_bytes("shard-a", corpora["periodic_shard"], codec="zlib")
        store.add_bytes("shard-b", corpora["periodic_shard"], codec="zlib")
        store.add_bytes("noise", corpora["noise"], codec="store")
        store.add_field("field", field, scheme="encr_huffman",
                        error_bound=1e-3)
        add_secs = time.perf_counter() - t0
        size_before = os.path.getsize(path)
        stats = store.stats()
        assert store.verify(deep=True) == []
        assert store.extract_bytes("shard-b") == corpora["periodic_shard"]
        store.remove("noise")
        dropped = store.gc()
        result["archive"] = {
            "stats": stats,
            "add_mb_per_s": round(
                stats["raw_bytes"] / 1e6 / add_secs, 2
            ),
            "file_bytes_before_gc": size_before,
            "file_bytes_after_gc": os.path.getsize(path),
            "blobs_gced": dropped,
        }
        assert stats["dedup_ratio"] >= 1.5, "mixed-corpus dedup regressed"
        assert dropped > 0 and os.path.getsize(path) < size_before
        assert ArchiveStore(path, key=KEY,
                            cipher_mode="ctr").verify(deep=True) == []

    with open(os.path.abspath(OUT_PATH), "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
    return result


if __name__ == "__main__":
    main()
