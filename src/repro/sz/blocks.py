"""Block decomposition helpers for the regression predictor.

SZ splits the domain into equal-size blocks (paper Sec. II-A), padding
a partial block at the far edge of an axis by replicating the edge
value.  :func:`block_matrix` lays the padded grid out as one row per
block for the vectorized per-block fit, straight from the unpadded
array: the padding is a broadcast of the edge planes, not a copy.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "padded_shape",
    "n_blocks",
    "block_matrix",
]


def padded_shape(shape: tuple[int, ...], block_size: int) -> tuple[int, ...]:
    """The smallest block-multiple shape covering ``shape``."""
    if block_size < 1:
        raise ValueError("block_size must be positive")
    return tuple(block_size * math.ceil(s / block_size) for s in shape)


def n_blocks(shape: tuple[int, ...], block_size: int) -> int:
    """Number of blocks tiling (the padded version of) ``shape``."""
    return int(np.prod([s // block_size for s in padded_shape(shape, block_size)]))


def block_matrix(data: np.ndarray, block_size: int) -> np.ndarray:
    """The edge-padded blocks of ``data`` as a float64
    ``(n_blocks, block_size**ndim)`` matrix.

    Blocks are ordered C-style over the block grid, and elements within
    a block are C-ordered over local coordinates.  The matrix is written
    through a view that interleaves block and local axes, ``(b0, l0,
    b1, l1, ...)``.  Along each axis, that view splits into whole
    blocks, the real part of a partial last block, and its padding.
    The padding reads the axis's last index with length 1, so it
    broadcasts.  One strided copy per combination of those parts fills
    the matrix, and no padded copy of ``data`` is made.
    """
    bs = block_size
    grid = [s // bs for s in padded_shape(data.shape, bs)]
    out = np.empty((math.prod(grid), bs ** data.ndim), dtype=np.float64)
    order = [i for axis in range(data.ndim) for i in (axis, data.ndim + axis)]
    view = out.reshape(grid + [bs] * data.ndim).transpose(order)
    # Per axis: (target block and local slices, source slice, source
    # split into (blocks, locals)).
    parts = []
    for s in data.shape:
        whole, rest = divmod(s, bs)
        axis_parts = []
        if whole:
            axis_parts.append(((slice(0, whole), slice(None)),
                               slice(0, whole * bs), (whole, bs)))
        if rest:
            last = slice(whole, whole + 1)
            axis_parts.append(((last, slice(0, rest)),
                               slice(whole * bs, s), (1, rest)))
            axis_parts.append(((last, slice(rest, bs)), slice(s - 1, s), (1, 1)))
        parts.append(axis_parts)
    for combo in itertools.product(*parts):
        target = view[tuple(sl for dst, _, _ in combo for sl in dst)]
        source = data[tuple(src for _, src, _ in combo)]
        target[...] = source.reshape([n for _, _, split in combo for n in split])
    return out
