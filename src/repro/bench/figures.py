"""Figure-artifact helpers: Fig. 3 masks as PGM images, plus mask stats.

The paper's Fig. 3 shows binary images of Nyx where gray pixels are
unpredictable and black pixels predictable data.  We regenerate the
same masks from the quantization codes and write them as portable
graymaps (PGM — viewable anywhere, no plotting dependency).
"""

from __future__ import annotations

import os

import numpy as np

from repro.sz.compressor import SZCompressor, decode_codes

__all__ = ["predictability_mask", "write_pgm", "mask_summary"]


def predictability_mask(data: np.ndarray, eb: float, **kwargs) -> np.ndarray:
    """Boolean mask of *predictable* points for ``data`` at ``eb``.

    Runs the real compressor and recovers the sentinel layout from the
    frame itself (not a side computation), so the mask is exactly what
    the paper's Fig. 3 visualizes.
    """
    comp = SZCompressor(eb, **kwargs)
    frame = comp.compress(data)
    info = comp.parse_meta(frame.sections["meta"])
    code, ranks, _ = decode_codes(frame.sections, info)
    return (code.symbols[ranks] != 0).reshape(info["shape"])


def write_pgm(path: str | os.PathLike, mask: np.ndarray) -> None:
    """Write a 2-D boolean mask as a binary PGM (black = predictable).

    Uses the paper's encoding: predictable points are black (0),
    unpredictable points gray (160).
    """
    if mask.ndim != 2:
        raise ValueError("PGM output needs a 2-D mask; slice the volume first")
    img = np.where(mask, 0, 160).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + img.tobytes())


def mask_summary(mask: np.ndarray) -> dict[str, float]:
    """Counts/fractions used in the Fig. 3 caption discussion."""
    total = int(mask.size)
    predictable = int(mask.sum())
    return {
        "total": float(total),
        "predictable": float(predictable),
        "unpredictable": float(total - predictable),
        "predictable_fraction": predictable / total if total else 0.0,
    }
