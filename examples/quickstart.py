#!/usr/bin/env python3
"""Quickstart: compress a scientific field with an error bound and
encrypt the critical part of the stream in one step.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import SecureCompressor
from repro.crypto.aes import derive_key


def main() -> None:
    # A toy "simulation output": a smooth 3-D pressure-like field.
    x = np.linspace(0.0, 4.0 * np.pi, 64, dtype=np.float64)
    gx, gy, gz = np.meshgrid(x[:32], x, x, indexing="ij")
    field = (np.sin(gx) * np.cos(gy) + 0.05 * gz).astype(np.float32)
    print(f"original field : {field.shape} {field.dtype} = "
          f"{field.nbytes / 1024:.1f} KiB")

    # The paper's recommended scheme: SZ with only the Huffman tree
    # encrypted (Encr-Huffman).  The key can come from a passphrase.
    sc = SecureCompressor(
        scheme="encr_huffman",
        error_bound=1e-3,            # absolute bound, SZ's "abs" mode
        key=derive_key("correct horse battery staple"),
    )

    result = sc.compress(field)
    print(f"container      : {result.compressed_bytes / 1024:.1f} KiB "
          f"(CR {field.nbytes / result.compressed_bytes:.1f}x)")
    print(f"bytes encrypted: {result.encrypted_bytes} "
          f"(the serialized Huffman tree only)")
    print(f"predictable    : {result.sz_stats.predictable_fraction:.1%} "
          f"of points")

    restored = sc.decompress(result.container)
    err = float(np.max(np.abs(restored.astype(np.float64) - field)))
    print(f"max abs error  : {err:.2e} (bound 1e-3 -> "
          f"{'OK' if err <= 1e-3 else 'VIOLATED'})")

    # Without the key, the wrong-key reader fails: the tree is
    # ciphertext, and recovering Huffman-coded data without its code
    # table is NP-hard in the worst case (not for tiny alphabets; see
    # docs/SECURITY.md, limitation 2).
    thief = SecureCompressor(scheme="encr_huffman", error_bound=1e-3,
                             key=derive_key("wrong password"))
    try:
        thief.decompress(result.container)
        print("!!! wrong key somehow decoded the data")
    except ValueError as exc:
        print(f"wrong key      : rejected ({exc.__class__.__name__})")


if __name__ == "__main__":
    main()
