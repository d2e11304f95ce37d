"""Span and sample arithmetic for the ledger (stdlib only).

Everything here reads the ``repro-trace/1`` span dicts the program
exports (``Span.to_dict()``): self time, the per-layer stage split of a
``compress``/``decompress`` root, and the order statistics the ledger
reports.  No import of the program, so the self-test can check the
arithmetic on synthetic trees without a checkout.
"""

from __future__ import annotations

import math
import statistics

#: Compress-side span name -> per-layer metric (summed self seconds).
#: ``lossless`` here is the deflate pass; inflate lives on the
#: decompress side and stays in the per-row breakdown only.
COMPRESS_STAGES = {
    "compress": "core.facade_self_s",
    "quantize": "sz.quantize_s",
    "predict": "sz.predict_s",
    "huffman_build": "sz.huffman_build_s",
    "huffman_encode": "sz.huffman_encode_s",
    "side_channels": "sz.side_channels_s",
    "protect": "core.protect_s",
    "lossless": "sz.lossless_s",
    "encrypt": "crypto.encrypt_s",
}

#: Decompress-side span name -> per-layer metric.
DECOMPRESS_STAGES = {
    "decompress": "core.facade_self_s",
    "unprotect": "core.unprotect_s",
    "decrypt": "crypto.decrypt_s",
    "huffman_decode": "sz.huffman_decode_s",
    "reconstruct": "sz.reconstruct_s",
}


def walk(span: dict, path: str = ""):
    """Yield ``(path, span)`` for ``span`` and every descendant;
    ``path`` joins span names with ``/``."""
    here = f"{path}/{span['name']}" if path else span["name"]
    yield here, span
    for child in span["children"]:
        yield from walk(child, here)


def self_seconds(span: dict) -> float:
    """The span's duration minus the part of its interval that the
    union of its children's intervals covers (never negative)."""
    lo = span["start"]
    hi = lo + span["seconds"]
    intervals = sorted(
        (max(lo, c["start"]), min(hi, c["start"] + c["seconds"]))
        for c in span["children"]
    )
    covered = 0.0
    run_lo = run_hi = None
    for a, b in intervals:
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                covered += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        covered += run_hi - run_lo
    return max(0.0, span["seconds"] - covered)


def self_breakdown(root: dict) -> dict[str, float]:
    """Self seconds per span path, summed where a path repeats (the
    per-row breakdown written beside the results)."""
    out: dict[str, float] = {}
    for path, span in walk(root):
        out[path] = out.get(path, 0.0) + self_seconds(span)
    return out


def stage_split(root: dict, stages: dict[str, str]) -> dict[str, float]:
    """Sum the self seconds of every span in ``root`` whose name maps
    to a per-layer metric in ``stages``."""
    out: dict[str, float] = {}
    for _, span in walk(root):
        metric = stages.get(span["name"])
        if metric is not None:
            out[metric] = out.get(metric, 0.0) + self_seconds(span)
    return out


def ctr_ciphertext_blocks(root: dict) -> int:
    """16-byte blocks the CTR ``encrypt`` spans of ``root`` consumed."""
    return sum(
        math.ceil((span["bytes_in"] or 0) / 16)
        for _, span in walk(root)
        if span["name"] == "encrypt" and span["attrs"].get("mode") == "ctr"
    )


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0
