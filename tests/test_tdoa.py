"""Tests for TDoA arithmetic (repro.ranging.tdoa)."""

import pytest

from repro.errors import ValidationError
from repro.ranging.tdoa import TdoaConfig


class TestTdoaConfig:
    def test_meters_per_sample(self):
        config = TdoaConfig(sampling_rate_hz=16_000.0, speed_of_sound=340.0)
        assert config.meters_per_sample == pytest.approx(0.02125)

    def test_index_distance_roundtrip(self):
        config = TdoaConfig()
        for d in (0.0, 1.0, 9.14, 21.99):
            idx = config.index_from_distance(d)
            back = config.distance_from_index(idx)
            assert back == pytest.approx(d, abs=config.meters_per_sample)

    @pytest.mark.parametrize(
        "fs, speed, offset",
        [(16_000.0, 340.0, 0.0), (8_000.0, 343.0, 0.12), (44_100.0, 331.0, 0.5)],
    )
    def test_distance_is_the_paper_formula(self, fs, speed, offset):
        # Index 0 is the zero-distance arrival, so Section 3.1's
        # d = Vs * (t_detect - ...) is d = index * Vs / fs - offset.
        config = TdoaConfig(sampling_rate_hz=fs, speed_of_sound=speed, calibration_offset_m=offset)
        for index in (100, 400, 1000):
            assert config.distance_from_index(index) == pytest.approx(index * speed / fs - offset)

    def test_calibration_offset_subtracted(self):
        config = TdoaConfig(calibration_offset_m=0.5)
        idx = TdoaConfig().index_from_distance(10.0)
        assert config.distance_from_index(idx) == pytest.approx(9.5, abs=0.03)

    def test_distance_clamped_at_zero(self):
        config = TdoaConfig(calibration_offset_m=5.0)
        assert config.distance_from_index(0) == 0.0

    def test_buffer_length_covers_max_range(self):
        config = TdoaConfig(max_range_m=22.0, buffer_margin_samples=192)
        assert config.buffer_length >= config.index_from_distance(22.0) + 192

    def test_with_calibration_copies(self):
        base = TdoaConfig()
        calibrated = base.with_calibration(0.15)
        assert calibrated.calibration_offset_m == 0.15
        assert base.calibration_offset_m == 0.0
        assert calibrated.max_range_m == base.max_range_m

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            TdoaConfig().distance_from_index(-1)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValidationError):
            TdoaConfig().index_from_distance(-2.0)

    def test_invalid_config_values(self):
        with pytest.raises(ValidationError):
            TdoaConfig(sampling_rate_hz=0.0)
        with pytest.raises(ValidationError):
            TdoaConfig(speed_of_sound=-1.0)
        with pytest.raises(ValidationError):
            TdoaConfig(max_range_m=0.0)

