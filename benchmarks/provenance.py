"""The ``repro-bench/1`` provenance header of every ``BENCH_*.json``.

The standalone quick-benches (``bench_crypto.py``,
``bench_huffman_lanes.py``, ``bench_lz_archive.py``) each write one
``BENCH_*.json`` at the repo root and put this header first, so every
number in it names the commit, interpreter, NumPy build and CPU count
that produced it — the same fields the benchmark ledger stamps on its
runs.
"""

from __future__ import annotations

import os
import platform
import subprocess

import numpy as np

__all__ = ["header"]


def _git_rev() -> str:
    """HEAD's commit, suffixed ``-dirty`` when the tree has edits."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def header(bench: str, dims) -> dict:
    """The ``repro-bench/1`` header for bench ``bench`` over ``dims``."""
    return {
        "schema": "repro-bench/1",
        "bench": bench,
        "timing": "measured",
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "dims": [int(d) for d in dims],
    }
