"""repro — secure error-bounded lossy compression for scientific data.

A complete, from-scratch Python reproduction of

    Shan, Di, Calhoun, Cappello.  "Exploring Light-weight Cryptography
    for Efficient and Secure Lossy Data Compression", IEEE CLUSTER 2022.

The package provides:

* :class:`repro.core.SecureCompressor` — the paper's system: the
  SZ-1.4 lossy pipeline with AES-128 interposed at one of three
  stages (``cmpr_encr``, ``encr_quant``, ``encr_huffman``);
* :mod:`repro.sz` — a NumPy SZ-1.4 (prediction, quantization,
  Huffman, zlib);
* :mod:`repro.crypto` — AES-128 (FIPS-197) with CBC/CTR modes;
* :mod:`repro.security` — the NIST SP800-22 randomness suite,
  entropy analysis, key-space models and a bit-flip attack harness;
* :mod:`repro.datasets` — seeded synthetic SDRBench-like fields;
* :mod:`repro.bench` — the harness regenerating every table and
  figure of the paper's evaluation (see EXPERIMENTS.md);
* :mod:`repro.parallel` — streaming slab-by-slab file compression
  (the SECM framing).

Quick start
-----------
>>> import numpy as np
>>> from repro import SecureCompressor
>>> sc = SecureCompressor(scheme="encr_huffman", error_bound=1e-3,
...                       key=b"super-secret-16B")
>>> field = np.random.default_rng(0).random((32, 32, 32)).astype(np.float32)
>>> protected = sc.compress(field)
>>> restored = sc.decompress(protected.container)
>>> bool(np.max(np.abs(restored - field)) <= 1e-3)
True
"""

from repro.core import SecureCompressor, recommend_scheme
from repro.core.pipeline import CompressResult
from repro.crypto import AES128
from repro.sz import ErrorBound, SZCompressor

__version__ = "1.0.0"

__all__ = [
    "SecureCompressor",
    "CompressResult",
    "SZCompressor",
    "ErrorBound",
    "AES128",
    "recommend_scheme",
    "__version__",
]
