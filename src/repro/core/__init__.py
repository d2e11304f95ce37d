"""The paper's contribution: secure error-bounded lossy compression.

Three strategies for combining SZ with AES-128-CBC (paper Sec. IV):

``cmpr_encr``
    The state-of-the-art baseline: SZ compresses (including the final
    zlib pass), then the *entire* compressed stream is encrypted.
``encr_quant``
    White-box: the Huffman-encoded quantization array (tree +
    codewords + metadata) is encrypted *before* the zlib pass; the
    unpredictable/regression side channels stay plaintext.
``encr_huffman``
    White-box, light-weight: only the serialized Huffman tree is
    encrypted; without it, recovering the codeword stream is NP-hard
    in the worst case.  A small alphabet hides little: at bound 1e-2
    the qi and cloudf48 stand-ins compress to a one-symbol code, which
    leaves at most log2(2·radius) bits to guess (docs/SECURITY.md,
    limitation 2).
``none``
    Plain SZ, the no-encryption baseline every overhead table
    normalizes against.

:class:`~repro.core.pipeline.SecureCompressor` is the public façade:

>>> import numpy as np
>>> from repro.core import SecureCompressor
>>> sc = SecureCompressor(scheme="encr_huffman", error_bound=1e-3,
...                       key=bytes(range(16)))
>>> data = np.linspace(0, 1, 8**3, dtype=np.float32).reshape(8, 8, 8)
>>> result = sc.compress(data)
>>> out = sc.decompress(result.container)
>>> bool(np.max(np.abs(out - data)) <= 1e-3)
True
"""

from repro.core.advisor import SchemeRecommendation, recommend_scheme
from repro.core.container import Container, pack_container, parse_container
from repro.core.metrics import (
    bandwidth_mb_s,
    compression_ratio,
    normalized_cr,
    overhead_percent,
)
from repro.core.pipeline import CompressResult, SecureCompressor
from repro.core.schemes import SCHEMES, Scheme, get_scheme
from repro.core.trace import Tracer

__all__ = [
    "SecureCompressor",
    "CompressResult",
    "Tracer",
    "Scheme",
    "SCHEMES",
    "get_scheme",
    "Container",
    "pack_container",
    "parse_container",
    "compression_ratio",
    "bandwidth_mb_s",
    "overhead_percent",
    "normalized_cr",
    "recommend_scheme",
    "SchemeRecommendation",
]
