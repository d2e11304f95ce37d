"""The bench harness's modeled-AES timing machinery."""

import numpy as np
import pytest

from repro.bench.harness import (
    MODEL_AES_SZ_RATIO,
    aes_calibration,
    dataset_cache,
    measure_overhead_paired,
    measure_scheme,
    model_aes_mb_s,
    sz_calibration,
)


class TestCalibration:
    def test_sz_rate_positive(self):
        assert sz_calibration() > 0.0

    def test_model_rate_is_ratio(self):
        assert model_aes_mb_s() == pytest.approx(
            MODEL_AES_SZ_RATIO * sz_calibration()
        )

    def test_aes_calibration_sane(self):
        enc, dec = aes_calibration()
        assert enc > 0 and dec > 0
        # The batched decrypt path is faster than sequential encrypt.
        assert dec > enc

    def test_calibrations_cached(self):
        assert sz_calibration() == sz_calibration()
        assert aes_calibration() == aes_calibration()


class TestModeledTimings:
    @pytest.fixture(scope="class")
    def measurement(self, key):
        data = dataset_cache("q2", size="tiny")
        return measure_scheme(data, "cmpr_encr", 1e-4, repeats=2, key=key)

    def test_modeled_encrypt_much_smaller_than_measured(self, measurement):
        measured = measurement.compress_times["encrypt"]
        assert 0 < measurement.modeled_encrypt_seconds() < measured

    def test_modeled_total_consistent(self, measurement):
        expected = (
            measurement.t_compress
            - measurement.compress_times["encrypt"]
            + measurement.modeled_encrypt_seconds()
        )
        assert measurement.t_compress_modeled == pytest.approx(expected)

    def test_modeled_bandwidth_not_below_measured(self, measurement):
        assert measurement.compress_bw_modeled >= measurement.compress_bw

    def test_none_scheme_model_is_identity(self):
        data = dataset_cache("q2", size="tiny")
        m = measure_scheme(data, "none", 1e-3, repeats=1)
        assert m.modeled_encrypt_seconds() == 0.0
        assert m.t_compress_modeled == pytest.approx(m.t_compress)


class TestPairedOverhead:
    def test_none_vs_none_is_100(self):
        data = np.asarray(dataset_cache("q2", size="tiny"))
        overhead = measure_overhead_paired(data, "none", 1e-3, repeats=3)
        assert overhead == pytest.approx(100.0, abs=2.0)

    def test_cmpr_encr_above_100(self):
        data = np.asarray(dataset_cache("nyx", size="tiny"))
        # The signal (modeled encrypt, ~1.7 % of base) is close to the
        # per-repeat deflate timing noise (sigma ~2 %), so a median of
        # few repeats flakes below 100; 15 repeats pin the median.
        overhead = measure_overhead_paired(data, "cmpr_encr", 1e-7,
                                           repeats=15)
        assert 100.0 < overhead < 115.0

    def test_rejects_bad_repeats(self):
        data = np.asarray(dataset_cache("q2", size="tiny"))
        with pytest.raises(ValueError):
            measure_overhead_paired(data, "none", 1e-3, repeats=0)
