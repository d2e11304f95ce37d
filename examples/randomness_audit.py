#!/usr/bin/env python3
"""Audit the randomness of secure-compressed output with the NIST
SP800-22 suite — the paper's Table VI experiment as a utility.

A security office asks: "if this archive leaks, does it *look* like
ciphertext?"  For Cmpr-Encr the answer is yes; for the white-box
schemes the answer is deliberately no (they trade full-stream
randomness for bandwidth, relying on the worst-case NP-hardness of
decoding Huffman data without its tree).

Run:  python examples/randomness_audit.py        (~1 minute)
"""

import numpy as np

from repro.core.pipeline import SecureCompressor
from repro.datasets import generate
from repro.security.entropy import local_entropy_profile
from repro.security.nist import run_suite

KEY = bytes(range(16))
#: A fast, discriminating subset of the 15 tests (the full suite runs
#: in the Table VI benchmark).
TESTS = ("frequency", "block_frequency", "runs", "serial",
         "approximate_entropy", "cumulative_sums")


def audit(scheme: str, data, eb: float) -> None:
    sc = SecureCompressor(scheme, eb, key=KEY,
                          random_state=np.random.default_rng(1))
    blob = sc.compress(np.asarray(data)).container
    result = run_suite(blob, n_streams=8, tests=TESTS)
    verdict = "ciphertext-like" if result.all_pass else "structured"
    print(f"\n=== {scheme} ({len(blob)} bytes) -> {verdict}")
    print(result.format_table())
    profile = local_entropy_profile(blob, block_bytes=4096)
    print(f"local entropy: min {profile.min():.2f}, "
          f"max {profile.max():.2f} bits/byte over "
          f"{len(profile)} blocks")


def main() -> None:
    data = generate("q2", size="small")
    for scheme in ("cmpr_encr", "encr_quant", "encr_huffman"):
        audit(scheme, data, 1e-5)


if __name__ == "__main__":
    main()
