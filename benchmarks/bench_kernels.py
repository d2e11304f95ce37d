"""Kernel-level throughput benchmarks (regression tracking).

Not a paper artifact: these pin the performance of the hot kernels the
whole system is built from, so optimization work (like the table-driven
Huffman decoder rewrite) has a measured baseline.  pytest-benchmark's
comparison mode (``--benchmark-autosave`` / ``--benchmark-compare``)
turns these into a simple regression harness.
"""

import numpy as np
import pytest

from repro.crypto import batch, modes
from repro.crypto.keyschedule import expand_key
from repro.sz import huffman, predictors
from repro.sz.intcodec import byteplane_decode, byteplane_encode

EK = expand_key(bytes(range(16)))
RNG = np.random.default_rng(0)


@pytest.fixture(scope="module")
def grid_q():
    return RNG.integers(-1000, 1000, size=(64, 64, 64)).astype(np.int64)


@pytest.fixture(scope="module")
def skewed_values():
    vals = RNG.zipf(1.6, size=200_000).astype(np.int64)
    return np.clip(vals, 1, 1 << 18)


def _lorenzo_residuals(q):
    """The Lorenzo residuals of ``q``, gathered from the encoder's slab
    pass (which reuses one buffer, hence the copies)."""
    slabs = [r.copy() for _, r in predictors.residual_slabs(q, "lorenzo")]
    return np.concatenate(slabs).reshape(q.shape)


def _lorenzo_pass(q):
    """The encoder's Lorenzo slab pass, each slab computed and dropped."""
    for _ in predictors.residual_slabs(q, "lorenzo"):
        pass


def test_kernel_lorenzo_forward(benchmark, grid_q):
    benchmark(_lorenzo_pass, grid_q)


def test_kernel_lorenzo_inverse(benchmark, grid_q):
    """The decoder's slab-wise inverse, from symbol ranks (one per
    distinct residual) to the field at step 1.0."""
    table, ranks = np.unique(_lorenzo_residuals(grid_q), return_inverse=True)
    out = benchmark(predictors.reconstruct, ranks.astype(np.int32), table,
                    grid_q.shape, "lorenzo", 0.5, np.float64)
    assert np.array_equal(out, grid_q)


def test_kernel_huffman_encode(benchmark, skewed_values):
    symbols, counts = np.unique(skewed_values, return_counts=True)
    code = huffman.build_code(symbols, counts)
    packed = benchmark(huffman.encode, skewed_values, code)
    assert packed.n_bits > 0


def test_kernel_huffman_decode(benchmark, skewed_values):
    symbols, counts = np.unique(skewed_values, return_counts=True)
    code = huffman.build_code(symbols, counts)
    packed = huffman.encode(skewed_values, code)
    out = benchmark.pedantic(
        lambda: huffman.decode(packed, code, skewed_values.size),
        rounds=3, iterations=1,
    )
    assert np.array_equal(out, skewed_values)


def test_kernel_huffman_decode_short(benchmark):
    """The scalar route: many streams shaped like an archive log's LZ7H
    token streams (a few hundred symbols under their own small code),
    each below ``SELF_SYNC_MIN_VALUES`` and so read by the scalar loop.
    As in an archive extract, every round parses each stream's tree and
    builds its decode table afresh."""
    text = b"".join(
        b"2026-08-08T12:00:%02d INFO worker-%d step=%d loss=%.6f\n"
        % (i % 60, i % 8, i, (i * 0.37) % 1) for i in range(600)
    )
    streams = []
    for k in range(0, len(text), 1024):
        tokens = np.frombuffer(text[k : k + 1024], dtype=np.uint8)[::4]
        symbols, counts = np.unique(tokens.astype(np.int64),
                                    return_counts=True)
        code = huffman.build_code(symbols, counts)
        streams.append((huffman.encode(tokens, code),
                        huffman.serialize_tree(code), tokens))
    assert all(t.size < huffman.SELF_SYNC_MIN_VALUES for *_, t in streams)

    def decode_all():
        return [huffman.decode(p, huffman.deserialize_tree(tree), t.size)
                for p, tree, t in streams]

    out = benchmark(decode_all)
    assert all(np.array_equal(o, t) for o, (*_, t) in zip(out, streams))


def test_kernel_aes_batch_ecb(benchmark):
    blocks = RNG.integers(0, 256, size=(4096, 16), dtype=np.uint8)
    enc = benchmark(batch.encrypt_blocks, blocks, EK)
    assert enc.shape == blocks.shape


def test_kernel_aes_cbc_encrypt(benchmark):
    payload = bytes(64 * 1024)
    ct = benchmark.pedantic(
        lambda: modes.cbc_encrypt(payload, EK, bytes(16)),
        rounds=3, iterations=1,
    )
    assert len(ct) == 64 * 1024 + 16


def test_kernel_byteplane(benchmark):
    vals = RNG.integers(-(2**20), 2**20, size=100_000).astype(np.int64)
    blob = benchmark(byteplane_encode, vals)
    assert np.array_equal(byteplane_decode(blob), vals)
