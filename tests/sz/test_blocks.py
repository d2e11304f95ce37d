"""Block decomposition helpers: the fit's block matrix from the
unpadded grid, and the padded layout of ``tests/oracles.py`` it must
reproduce."""

import numpy as np
import pytest

from repro.sz import blocks
from tests import oracles


class TestPaddedShape:
    def test_exact_multiple_unchanged(self):
        assert blocks.padded_shape((16, 8), 8) == (16, 8)

    def test_rounds_up(self):
        assert blocks.padded_shape((10, 11, 3), 8) == (16, 16, 8)

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError, match="positive"):
            blocks.padded_shape((4,), 0)


class TestBlockView:
    def test_roundtrip_2d(self):
        data = np.arange(16 * 24).reshape(16, 24)
        blocked = oracles.block_view(data, 8)
        assert blocked.shape == (6, 64)
        back = oracles.unblock_view(blocked, (16, 24), 8)
        assert np.array_equal(back, data)

    def test_roundtrip_3d(self):
        data = np.arange(8 * 16 * 8).reshape(8, 16, 8)
        blocked = oracles.block_view(data, 8)
        assert blocked.shape == (2, 512)
        assert np.array_equal(oracles.unblock_view(blocked, data.shape, 8), data)

    def test_block_contents_are_local(self):
        data = np.arange(64).reshape(8, 8)
        blocked = oracles.block_view(data, 4)
        # First block must be the top-left 4x4 corner, C order.
        assert np.array_equal(blocked[0], data[:4, :4].reshape(-1))

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError, match="multiple"):
            oracles.block_view(np.zeros((10, 8)), 8)

    def test_unblock_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="tile"):
            oracles.unblock_view(np.zeros((3, 64)), (16, 16), 8)


class TestPadCrop:
    def test_pad_replicates_edges(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        padded = oracles.pad_to_blocks(data, 4)
        assert padded.shape == (4, 4)
        assert padded[3, 3] == 4.0
        assert padded[0, 3] == 2.0

    def test_pad_noop_when_aligned(self):
        data = np.zeros((8, 8))
        assert oracles.pad_to_blocks(data, 8) is data

    def test_crop_inverts_pad(self):
        data = np.random.default_rng(0).random((5, 9))
        padded = oracles.pad_to_blocks(data, 4)
        assert np.array_equal(oracles.crop(padded, data.shape), data)

    def test_n_blocks(self):
        assert blocks.n_blocks((10, 11), 8) == 4
        assert blocks.n_blocks((8, 8, 8), 8) == 1


# Axis lengths below, equal to and above the block size, aligned or
# not, in 1-4 D.
MATRIX_SHAPES = [(1,), (7,), (16,), (1001,), (3, 5), (16, 24), (10, 11),
                 (5, 7, 9), (8, 16, 8), (17, 3, 30), (2, 3, 4, 5),
                 (9, 8, 10, 3)]


class TestBlockMatrix:
    @pytest.mark.parametrize("shape", MATRIX_SHAPES, ids=str)
    @pytest.mark.parametrize("block_size", [2, 3, 4, 8])
    def test_matches_padded_block_view(self, shape, block_size):
        rng = np.random.default_rng(sum(shape) + block_size)
        data = rng.integers(-(2**40), 2**40, size=shape)
        got = blocks.block_matrix(data, block_size)
        ref = oracles.block_view(oracles.pad_to_blocks(data, block_size),
                                 block_size).astype(np.float64)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, ref)
        assert got.shape[0] == blocks.n_blocks(shape, block_size)

    def test_reads_views(self):
        data = np.arange(20 * 30).reshape(20, 30)
        for view in (data[:, ::3], data.T, data[3:17, 5:]):
            ref = oracles.block_view(oracles.pad_to_blocks(view, 4), 4)
            assert np.array_equal(blocks.block_matrix(view, 4), ref)
