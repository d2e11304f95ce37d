"""The benchmark harness library (measurement + formatting + figures)."""

import math

import numpy as np
import pytest

from repro.bench import (
    EBS,
    SCHEME_LABELS,
    dataset_cache,
    format_grid,
    format_series,
    measure_scheme,
    sweep,
)
from repro.bench.figures import mask_summary, predictability_mask, write_pgm
from repro.bench.tables import format_comparison


class TestHarness:
    def test_ebs_match_paper(self):
        assert EBS == (1e-7, 1e-6, 1e-5, 1e-4, 1e-3)

    def test_scheme_labels(self):
        assert SCHEME_LABELS["encr_huffman"] == "Encr-Huffman"
        assert SCHEME_LABELS["none"] == "Original SZ"

    def test_dataset_cache_identity(self):
        a = dataset_cache("nyx", size="tiny")
        b = dataset_cache("nyx", size="tiny")
        assert a is b
        assert not a.flags.writeable

    def test_measure_scheme_fields(self, key):
        data = dataset_cache("q2", size="tiny")
        m = measure_scheme(data, "encr_huffman", 1e-4, repeats=2, key=key)
        assert m.cr > 1.0
        assert m.compress_bw > 0
        assert m.decompress_bw > 0
        assert m.t_compress > 0
        assert m.encrypted_bytes > 0
        assert m.original_bytes == data.nbytes
        assert "encrypt" in m.compress_times

    def test_measure_none_scheme(self):
        data = dataset_cache("q2", size="tiny")
        m = measure_scheme(data, "none", 1e-3, repeats=1)
        assert m.encrypted_bytes == 0

    def test_measure_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            measure_scheme(np.zeros(8, np.float32), "none", 1e-3, repeats=0)

    def test_sweep_grid(self):
        results = sweep(("q2",), ("none",), ebs=(1e-3, 1e-4),
                        size="tiny", repeats=1)
        assert set(results) == {("q2", "none", 1e-3), ("q2", "none", 1e-4)}


class TestTables:
    def test_format_grid(self):
        text = format_grid(
            "Table X", ["a", "b"], ["1e-3", "1e-4"],
            [[1.5, 2.5], [3.5, float("nan")]],
        )
        assert "Table X" in text
        assert "1.500" in text
        assert "n/a" in text

    def test_format_grid_validates(self):
        with pytest.raises(ValueError):
            format_grid("t", ["a"], ["c"], [[1.0], [2.0]])
        with pytest.raises(ValueError):
            format_grid("t", ["a"], ["c", "d"], [[1.0]])

    def test_format_series(self):
        text = format_series(
            "Fig Y", ["1e-3"], {"SZ": [2.0], "Encr": [1.0]}, bar=True
        )
        assert "Fig Y" in text
        assert "#" in text

    def test_format_series_validates(self):
        with pytest.raises(ValueError, match="length"):
            format_series("f", ["a", "b"], {"s": [1.0]})

    def test_format_comparison(self):
        text = format_comparison(
            "cmp", [("case1", 1.0, 1.1)], labels=("paper", "ours")
        )
        assert "paper" in text and "1.100" in text


class TestFigures:
    def test_predictability_mask(self):
        data = dataset_cache("nyx", size="tiny")
        mask = predictability_mask(np.asarray(data), 1e-3)
        assert mask.shape == data.shape
        assert mask.dtype == bool
        summary = mask_summary(mask)
        assert summary["predictable"] + summary["unpredictable"] == data.size
        assert 0.0 <= summary["predictable_fraction"] <= 1.0

    def test_mask_tracks_bound(self):
        data = dataset_cache("nyx", size="tiny")
        tight = mask_summary(predictability_mask(np.asarray(data), 1e-7))
        loose = mask_summary(predictability_mask(np.asarray(data), 1e-3))
        assert loose["predictable_fraction"] > tight["predictable_fraction"]

    def test_write_pgm(self, tmp_path):
        mask = np.zeros((8, 10), dtype=bool)
        mask[2:5, 3:7] = True
        path = tmp_path / "mask.pgm"
        write_pgm(path, mask)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n10 8\n255\n")
        body = raw.split(b"255\n", 1)[1]
        assert len(body) == 80
        assert body[2 * 10 + 3] == 0  # predictable -> black
        assert body[0] == 160  # unpredictable -> gray

    def test_write_pgm_rejects_3d(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2), dtype=bool))
