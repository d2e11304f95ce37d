#!/usr/bin/env python3
"""One scheme, three codecs: the section contract in action.

The paper's schemes never look inside the compressor — they transform
named byte sections.  Anything that exposes its Huffman tree as the
``tree`` section gets Encr-Huffman for free.  This example runs the
same field (and an image) through all three codecs in this repo:

  * ``repro.sz``         — the SZ-1.4 prediction pipeline,
  * ``repro.multilevel`` — the MGARD-like multilevel decomposition,
  * ``repro.imagecodec`` — the JPEG-like DCT codec,

each protected by Encr-Huffman, and reports ratio / error / how little
each actually encrypted.

Run:  python examples/codec_zoo.py
"""

import numpy as np

from repro import SecureCompressor
from repro.crypto.aes import derive_key
from repro.datasets import generate
from repro.imagecodec import SecureImageCompressor, synthetic_image
from repro.multilevel import SecureMultilevelCompressor

KEY = derive_key("codec zoo")


def main() -> None:
    field = generate("q2", size="tiny")
    eb = 1e-3
    print(f"field: q2 {field.shape} ({field.nbytes / 1024:.0f} KiB), "
          f"eb={eb:g}\n")
    print(f"{'codec':12s} {'out bytes':>10s} {'CR':>8s} {'max err':>10s} "
          f"{'AES bytes':>10s}")

    # SZ pipeline.
    sz = SecureCompressor("encr_huffman", eb, key=KEY)
    result = sz.compress(field)
    out = sz.decompress(result.container)
    err = np.abs(out.astype(np.float64) - field.astype(np.float64)).max()
    print(f"{'sz':12s} {result.compressed_bytes:10d} "
          f"{field.nbytes / result.compressed_bytes:8.2f} {err:10.2e} "
          f"{result.encrypted_bytes:10d}")

    # Multilevel (MGARD-like) pipeline.
    ml = SecureMultilevelCompressor("encr_huffman", eb, key=KEY)
    blob = ml.compress(field)
    out = ml.decompress(blob)
    err = np.abs(out.astype(np.float64) - field.astype(np.float64)).max()
    tree = ml.last_stats.section_bytes["tree"]
    print(f"{'multilevel':12s} {len(blob):10d} "
          f"{field.nbytes / len(blob):8.2f} {err:10.2e} {tree:10d}")

    # JPEG-like pipeline (on an image, its native domain).
    img = synthetic_image("scene", 128)
    im = SecureImageCompressor("encr_huffman", quality=80, key=KEY)
    res = im.compress(img)
    out = im.decompress(res.container)
    rmse = float(np.sqrt(np.mean((out - img) ** 2)))
    print(f"{'image(jpeg)':12s} {res.compressed_bytes:10d} "
          f"{img.size / res.compressed_bytes:8.2f} {rmse:10.2e} "
          f"{res.encrypted_bytes:10d}   (scene 128x128, q=80, RMSE)")

    print(
        "\nEvery codec encrypted only its (deflated) Huffman tree — tens\n"
        "of bytes to a few KiB. Recovering Huffman-coded data without\n"
        "its code table is NP-hard in the worst case (paper Sec. IV-C);\n"
        "a small alphabet leaves little to guess (docs/SECURITY.md)."
    )


if __name__ == "__main__":
    main()
