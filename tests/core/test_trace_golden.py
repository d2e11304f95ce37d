"""Golden trace fixtures: one ``*.trace.json`` per scheme variant.

``tests/data/traces/<variant>.trace.json`` pins the *structure* each
scheme's compress + decompress traces must produce — the span tree
shape (names, nesting, attr keys) and the set of counters touched.
Variants are scheme names, optionally suffixed ``@ctr`` for the CTR
fast path (which adds the ``aes.keystream_*`` counters).
Timings and byte counts are runtime-dependent and deliberately not
compared; what these fixtures catch is an accidental reshuffle of the
pipeline stages or a counter silently vanishing from a code path.

Regenerate after an *intentional* trace-shape change with::

    PYTHONPATH=src python tests/core/test_trace_golden.py --regen

and review the fixture diff like any other format change.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import trace
from repro.core.pipeline import SecureCompressor
from repro.core.schemes import SCHEMES
from repro.sz import huffman

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "data" / "traces"
KEY = bytes(range(16))

#: Field schemes exercised through the SECB v2 archive; each pins the
#: archive bookkeeping counters plus that scheme's pipeline spans.
ARCHIVE_SCHEMES = ("cmpr_encr", "encr_huffman", "encr_quant")

#: Golden variants: every scheme under the default CBC mode, plus the
#: CTR fast path on the scheme that encrypts the most keystream, plus
#: one archive life-cycle run per supported field scheme.
VARIANTS = (
    sorted(SCHEMES)
    + ["cmpr_encr@ctr"]
    + [f"archive@{s}" for s in ARCHIVE_SCHEMES]
)


def _clear_codec_cache() -> None:
    # The codec cache is process-global; a warm cache flips
    # codec_cache_misses to codec_cache_hits and the counter-key
    # comparison with it. Golden runs always start cold.
    huffman.codec_cache_clear()


def _run_archive(scheme: str) -> dict:
    """Archive life cycle (add + dedup + extract + gc), traced.

    The counters in a Tracer export are process-wide deltas since the
    tracer was created, so the ``archive.*`` and ``lz.*`` bookkeeping
    lands in the fixture alongside the field scheme's pipeline spans.
    """
    import os
    import tempfile

    from repro.archive import ArchiveStore

    _clear_codec_cache()
    rng = np.random.default_rng(42)
    field = np.cumsum(
        rng.standard_normal((24, 24)), axis=1
    ).astype(np.float32)
    log = b"".join(b"step %06d ok\n" % i for i in range(600))
    noise = rng.integers(0, 256, 6000, dtype=np.uint8).tobytes()
    tr = trace.Tracer()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "golden.secb")
        store = ArchiveStore.create(
            path,
            key=KEY,
            random_state=np.random.default_rng(0),
            chunk_bits=9,
            min_chunk=128,
            max_chunk=2048,
        )
        store.add_bytes("log", log, codec="lz77h")
        store.add_bytes("log-copy", log, codec="lz77h")  # chunks_deduped
        store.add_bytes("noise", noise, codec="zlib")
        store.add_field(
            "field", field, scheme=scheme, error_bound=1e-3, tracer=tr
        )
        assert store.extract_bytes("log-copy") == log
        np.testing.assert_allclose(
            store.extract_field("field"), field, atol=1e-3
        )
        store.remove("noise")
        assert store.gc() > 0  # blobs_gced
    return trace.validate(tr.export())


def _run_scheme(variant: str) -> dict:
    """Deterministic tiny compress + decompress, traced."""
    if variant.startswith("archive@"):
        return _run_archive(variant.partition("@")[2])
    _clear_codec_cache()
    scheme, _, mode = variant.partition("@")
    mode = mode or "cbc"
    rng = np.random.default_rng(42)
    field = np.cumsum(
        rng.standard_normal((24, 24)), axis=1
    ).astype(np.float32)
    sc = SecureCompressor(
        scheme=scheme,
        error_bound=1e-3,
        key=None if scheme == "none" else KEY,
        cipher_mode=mode,
        random_state=np.random.default_rng(0),
        allow_nonce_reuse=(mode == "ctr"),
    )
    tr = trace.Tracer()
    result = sc.compress(field, tracer=tr)
    restored = sc.decompress(result.container, tracer=tr)
    np.testing.assert_allclose(restored, field, atol=1e-3)
    return trace.validate(tr.export())


def _span_shape(span: dict) -> dict:
    """Structure only: name, attr keys, children — no timings/bytes."""
    return {
        "name": span["name"],
        "attr_keys": sorted(span["attrs"]),
        "children": [_span_shape(c) for c in span["children"]],
    }


def _doc_shape(doc: dict) -> dict:
    return {
        "roots": [_span_shape(r) for r in doc["roots"]],
        "counter_keys": sorted(doc["counters"]),
    }


@pytest.mark.parametrize("variant", VARIANTS)
def test_trace_matches_golden(variant):
    path = FIXTURE_DIR / f"{variant}.trace.json"
    assert path.exists(), (
        f"missing golden fixture {path.name}; regenerate with "
        f"`PYTHONPATH=src python {__file__} --regen`"
    )
    golden = json.loads(path.read_text())
    assert golden["schema"] == trace.SCHEMA
    assert _doc_shape(_run_scheme(variant)) == _doc_shape(golden)


def test_fixtures_are_valid_trace_documents():
    for variant in VARIANTS:
        doc = json.loads((FIXTURE_DIR / f"{variant}.trace.json").read_text())
        trace.validate(doc)


def test_fixture_leaves_are_the_stages():
    # trace.stage_seconds reads the leaves as the stage map of Fig. 7
    # and Tables III-V, so no structural span may ever be a leaf.
    stages = {"quantize", "predict", "huffman_build", "huffman_encode",
              "huffman_decode", "side_channels", "encrypt", "decrypt",
              "lossless", "reconstruct"}
    seen = set()
    for variant in VARIANTS:
        doc = json.loads((FIXTURE_DIR / f"{variant}.trace.json").read_text())
        leaves = set(trace.stage_seconds(doc))
        assert leaves <= stages, (variant, leaves - stages)
        seen |= leaves
    assert seen == stages


def test_no_stray_fixtures():
    # Every fixture corresponds to a registered variant, so a renamed
    # scheme cannot leave a stale golden behind unnoticed.
    found = {p.stem.replace(".trace", "") for p in FIXTURE_DIR.glob("*.trace.json")}
    assert found == set(VARIANTS)


def _regen(only: set[str] | None = None) -> None:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for variant in VARIANTS:
        if only and variant not in only:
            continue
        doc = _run_scheme(variant)
        path = FIXTURE_DIR / f"{variant}.trace.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        # Optional variant names after --regen restrict the rewrite
        # (keeps unrelated fixture diffs out of a focused change).
        names = {a for a in sys.argv[1:] if not a.startswith("-")}
        _regen(names or None)
    else:
        print(__doc__)
