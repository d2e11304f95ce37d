#!/usr/bin/env python3
"""The paper's generalization claim, live: Encr-Huffman on a JPEG-like
image codec.

Sec. IV: "our ideas can be translated into developing white-box
integrations ... for any compressor that leverages Huffman encoding
(e.g., MGARD and JPEG)".  The image codec in ``repro.imagecodec``
exposes its Huffman tree as a section exactly like the SZ pipeline
does, so the same scheme objects protect images without modification.

Run:  python examples/secure_image_pipeline.py
"""

import numpy as np

from repro.core.metrics import psnr
from repro.crypto.aes import derive_key
from repro.imagecodec import SecureImageCompressor, synthetic_image


def main() -> None:
    key = derive_key("image-archive")
    img = synthetic_image("scene", 192)
    print(f"image: {img.shape}, values [{img.min():.0f}, {img.max():.0f}]")

    print(f"\n{'scheme':14s} {'bytes':>8s} {'CR':>8s} {'AES bytes':>10s} "
          f"{'PSNR dB':>8s}")
    for scheme in ("none", "cmpr_encr", "encr_quant", "encr_huffman"):
        sic = SecureImageCompressor(
            scheme, quality=80, key=key if scheme != "none" else None
        )
        result = sic.compress(img)
        out = sic.decompress(result.container)
        print(
            f"{scheme:14s} {result.compressed_bytes:8d} "
            f"{img.size / result.compressed_bytes:8.2f} "
            f"{result.encrypted_bytes:10d} {psnr(img, out):8.2f}"
        )

    sic = SecureImageCompressor("encr_huffman", quality=80, key=key)
    result = sic.compress(img)
    stats = result.stats
    print(
        f"\nencr_huffman encrypted only the token-tree section: "
        f"{result.encrypted_bytes} bytes "
        f"({stats.tree_fraction_of_quant:.1%} of the token stream), "
        f"yet without it an attacker faces a decoding problem that is "
        f"NP-hard in the worst case for all {stats.n_tokens} tokens."
    )

    thief = SecureImageCompressor("encr_huffman", quality=80,
                                  key=derive_key("guess"))
    try:
        thief.decompress(result.container)
        print("!!! wrong key somehow decoded the image")
    except ValueError:
        print("wrong key: rejected, as expected")


if __name__ == "__main__":
    main()
