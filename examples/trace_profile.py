#!/usr/bin/env python3
"""Profile a secure compression with the trace layer.

Records the full span tree (stage wall times + byte flow) and the
process-wide counters for one compress/decompress round trip, prints
the tree, and writes both export formats:

* ``trace.json``        — the ``repro-trace/1`` document
                          (schema in docs/OBSERVABILITY.md)
* ``trace.chrome.json`` — Chrome trace-event format; drop it onto
                          chrome://tracing or https://ui.perfetto.dev
                          for a flame-graph view

Run:  python examples/trace_profile.py
"""

import json

import numpy as np

from repro import SecureCompressor
from repro.core import trace
from repro.crypto.aes import derive_key


def main() -> None:
    # The same toy field as examples/quickstart.py.
    x = np.linspace(0.0, 4.0 * np.pi, 64, dtype=np.float64)
    gx, gy, gz = np.meshgrid(x[:32], x, x, indexing="ij")
    field = (np.sin(gx) * np.cos(gy) + 0.05 * gz).astype(np.float32)

    sc = SecureCompressor(
        scheme="encr_huffman",
        error_bound=1e-4,
        key=derive_key("correct horse battery staple"),
    )

    # One Tracer can span any number of operations; every top-level
    # call becomes a root span, and counters report the delta over the
    # tracer's lifetime.
    tracer = trace.Tracer()
    result = sc.compress(field, tracer=tracer)
    restored = sc.decompress(result.container, tracer=tracer)
    assert np.max(np.abs(restored - field)) <= 1e-4

    doc = trace.validate(tracer.export())
    print(trace.format_tree(doc))

    with open("trace.json", "w") as fh:
        json.dump(doc, fh, indent=2)
    with open("trace.chrome.json", "w") as fh:
        json.dump(trace.chrome_trace(doc), fh)
    print("\nwrote trace.json and trace.chrome.json "
          "(open the latter in chrome://tracing or ui.perfetto.dev)")

    # The spans answer "where did the time go"; the counters answer
    # "how much work happened": AES blocks, zlib bytes, Huffman lanes
    # — aggregated process-wide, reported as deltas.
    encrypted = doc["counters"].get("aes.blocks_encrypted", 0) * 16
    print(f"\nAES touched {encrypted} bytes "
          f"({100.0 * encrypted / field.nbytes:.3f}% of the field) — "
          "the Encr-Huffman bargain in one number.")


if __name__ == "__main__":
    main()
