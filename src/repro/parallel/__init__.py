"""Streaming file-to-file secure compression (the SECM framing).

The paper compresses one field at a time on one thread (Sec. V-A).
For fields too large to hold in memory, :func:`compress_file` walks a
raw field file one axis-0 slab at a time and writes each slab's SECZ
container (its own IV: CBC must never reuse one) into a single SECM
file; :func:`decompress_file` streams the slabs back out.

>>> import os, tempfile
>>> import numpy as np
>>> from repro.parallel import compress_file, decompress_file
>>> data = np.random.default_rng(0).random((16, 16, 16)).astype(np.float32)
>>> with tempfile.TemporaryDirectory() as tmp:
...     raw, secm, out = (os.path.join(tmp, name)
...                       for name in ("f.bin", "f.secm", "out.bin"))
...     data.tofile(raw)
...     n_slabs = compress_file(raw, secm, data.shape, slab_rows=8,
...                             error_bound=1e-3, key=bytes(16))
...     shape = decompress_file(secm, out, key=bytes(16))
...     restored = np.fromfile(out, dtype=np.float32).reshape(shape)
>>> n_slabs, shape
(2, (16, 16, 16))
>>> bool(np.max(np.abs(restored - data)) <= 1e-3)
True
"""

from repro.parallel.filestream import compress_file, decompress_file

__all__ = ["compress_file", "decompress_file"]
