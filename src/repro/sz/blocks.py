"""Block decomposition helpers for the regression predictor.

SZ splits the domain into equal-size blocks (paper Sec. II-A).  These
helpers pad an N-d array to a block multiple (edge replication), expose
a ``(n_blocks, block_elems)`` flattened view for vectorized per-block
math, and invert both operations.  Pure reshape/transpose — no copies
beyond the pad itself.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "padded_shape",
    "n_blocks",
    "pad_to_blocks",
    "block_view",
    "unblock_view",
    "crop",
]


def padded_shape(shape: tuple[int, ...], block_size: int) -> tuple[int, ...]:
    """The smallest block-multiple shape covering ``shape``."""
    if block_size < 1:
        raise ValueError("block_size must be positive")
    return tuple(block_size * math.ceil(s / block_size) for s in shape)


def n_blocks(shape: tuple[int, ...], block_size: int) -> int:
    """Number of blocks tiling (the padded version of) ``shape``."""
    return int(np.prod([s // block_size for s in padded_shape(shape, block_size)]))


def pad_to_blocks(data: np.ndarray, block_size: int) -> np.ndarray:
    """Edge-replicate ``data`` up to a block-multiple shape."""
    target = padded_shape(data.shape, block_size)
    pad = [(0, t - s) for s, t in zip(data.shape, target)]
    if all(p == (0, 0) for p in pad):
        return data
    return np.pad(data, pad, mode="edge")


def block_view(padded: np.ndarray, block_size: int,
               dtype: np.dtype | None = None) -> np.ndarray:
    """Reshape a padded array to ``(n_blocks, block_size**ndim)``.

    Blocks are ordered C-style over the block grid, and elements within
    a block are C-ordered over local coordinates — the same convention
    :func:`unblock_view` inverts.  ``dtype`` casts in the same copy.
    """
    ndim = padded.ndim
    for axis, s in enumerate(padded.shape):
        if s % block_size:
            raise ValueError(f"axis {axis} size {s} not a block multiple")
    # (b0, s0, b1, s1, ...) split, then bring block axes first.
    split_shape: list[int] = []
    for s in padded.shape:
        split_shape.extend([s // block_size, block_size])
    arr = padded.reshape(split_shape)
    order = list(range(0, 2 * ndim, 2)) + list(range(1, 2 * ndim, 2))
    arr = arr.transpose(order)
    if dtype is None:
        return arr.reshape(-1, block_size**ndim)
    out = np.empty((padded.size // block_size**ndim, block_size**ndim), dtype)
    out.reshape(arr.shape)[...] = arr
    return out


def unblock_view(blocked: np.ndarray, target_shape: tuple[int, ...],
                 block_size: int) -> np.ndarray:
    """Invert :func:`block_view` back to ``target_shape`` (padded)."""
    ndim = len(target_shape)
    grid = [s // block_size for s in target_shape]
    if blocked.shape != (int(np.prod(grid)), block_size**ndim):
        raise ValueError(
            f"blocked array {blocked.shape} does not tile {target_shape} "
            f"with block size {block_size}"
        )
    arr = blocked.reshape(grid + [block_size] * ndim)
    order: list[int] = []
    for axis in range(ndim):
        order.extend([axis, ndim + axis])
    arr = arr.transpose(order)
    return arr.reshape(target_shape)


def crop(data: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Crop a padded array back to the original ``shape``."""
    slices = tuple(slice(0, s) for s in shape)
    return data[slices]
