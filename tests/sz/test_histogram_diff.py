"""Differential tests: the dense code histogram and the entropy estimate.

``np.unique(..., return_counts=True)`` is the reference both replaced on
the compress path.  Quantization codes lie in ``[0, 2R)``, so a dense
``bincount`` over those states must reproduce the reference's symbols
and counts exactly, in the same ascending order: the counts feed the
Huffman build and therefore the frozen frame bytes.  The entropy
estimate decides which predictor a frame uses, so it is compared with
``==``; a one-ulp drift could flip a close call between candidates.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import generate
from repro.sz import predictors, quantizer
from repro.sz.quantizer import MAX_RADIUS, code_histogram
from tests.oracles import predict_ref


def codes_from_residuals(residuals: np.ndarray, radius: int):
    """The code map of ``residuals`` in one slab; its own histogram
    must be :func:`code_histogram`'s."""
    flat = np.ravel(residuals)
    mapped = quantizer.codes_from_residuals([(0, flat)], flat.size, radius)
    symbols, counts = code_histogram(mapped.codes)
    assert np.array_equal(mapped.symbols, symbols)
    assert np.array_equal(mapped.counts, counts)
    unpred = np.zeros(flat.size, dtype=bool)
    unpred[mapped.unpredictable] = True
    return mapped.codes.reshape(np.shape(residuals)), unpred.reshape(np.shape(residuals))


def _assert_histogram_matches_unique(codes: np.ndarray) -> None:
    symbols, counts = code_histogram(codes)
    ref_symbols, ref_counts = np.unique(np.ravel(codes), return_counts=True)
    assert np.array_equal(symbols, ref_symbols)
    assert np.array_equal(counts, ref_counts)


def _entropy_ref(residuals: np.ndarray, radius: int, *,
                 sample_limit: int = 65536,
                 unpredictable_penalty_bits: float = 40.0) -> float:
    """The estimate with its histogram taken by ``np.unique`` (oracle)."""
    flat = np.ravel(residuals)
    if flat.size == 0:
        return 0.0
    if flat.size > sample_limit:
        flat = flat[:: flat.size // sample_limit]
    unpred = np.abs(flat) >= radius
    frac_unpred = float(unpred.mean())
    clipped = flat[~unpred]
    if clipped.size == 0:
        return unpredictable_penalty_bits
    _, counts = np.unique(clipped, return_counts=True)
    p = counts / clipped.size
    entropy = float(-(p * np.log2(p)).sum())
    return (1.0 - frac_unpred) * entropy + frac_unpred * unpredictable_penalty_bits


class TestCodeHistogram:
    def test_all_sentinel_codes(self):
        codes, unpred = codes_from_residuals(
            np.full((10, 12), 10**6, dtype=np.int64), 16
        )
        assert unpred.all()
        _assert_histogram_matches_unique(codes)
        symbols, counts = code_histogram(codes)
        assert symbols.tolist() == [0] and counts.tolist() == [120]

    def test_single_symbol(self):
        codes = np.full((4, 5, 6), 17, dtype=np.int64)
        _assert_histogram_matches_unique(codes)
        symbols, counts = code_histogram(codes)
        assert symbols.tolist() == [17] and counts.tolist() == [120]

    def test_top_code_at_max_radius(self):
        top = MAX_RADIUS - 1
        residuals = np.array([top, -top, 0, top, MAX_RADIUS], dtype=np.int64)
        codes, _ = codes_from_residuals(residuals, MAX_RADIUS)
        assert int(codes.max()) == 2 * MAX_RADIUS - 1
        _assert_histogram_matches_unique(codes)
        symbols, counts = code_histogram(codes)
        assert symbols[-1] == 2 * MAX_RADIUS - 1 and counts[-1] == 2

    @given(
        radius_log2=st.integers(4, 15),
        residuals=st.lists(
            st.integers(-(1 << 16), 1 << 16), min_size=1, max_size=300
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_codes_match_unique(self, radius_log2, residuals):
        codes, _ = codes_from_residuals(
            np.array(residuals, dtype=np.int64), 1 << radius_log2
        )
        _assert_histogram_matches_unique(codes)


class TestEntropyEstimate:
    @given(
        residuals=st.lists(
            st.integers(-2 * MAX_RADIUS, 2 * MAX_RADIUS), max_size=400
        ),
        radius=st.integers(1, MAX_RADIUS),
        penalty=st.sampled_from([22.0, 38.0, 40.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_unique(self, residuals, radius, penalty):
        res = np.array(residuals, dtype=np.int64)
        got = predictors.estimate_code_entropy(
            res, radius, unpredictable_penalty_bits=penalty
        )
        assert got == _entropy_ref(
            res, radius, unpredictable_penalty_bits=penalty
        )

    def test_bit_identical_on_sampled_real_residuals(self):
        """Real predictor residuals, down-sampled as in selection."""
        for name in ("nyx", "wf48", "qi"):
            q = quantizer.grid_quantize(generate(name, size="tiny"), 1e-4)
            radius = quantizer.choose_radius(predict_ref(q, "lorenzo", 8).residuals)
            for pred in predictors.PREDICTORS:
                res = predict_ref(q, pred, 8).residuals
                got = predictors.estimate_code_entropy(
                    res, radius, sample_limit=4096
                )
                assert got == _entropy_ref(res, radius, sample_limit=4096)
