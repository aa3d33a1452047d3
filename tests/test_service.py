"""Tests for the ranging service (repro.ranging.service)."""

import numpy as np
import pytest

from repro.acoustics import ChirpPattern, get_environment
from repro.errors import CalibrationError, ValidationError
from repro.ranging.link import LinkRealization
from repro.ranging.service import DetectionParams, RangingService
from repro.ranging.tdoa import TdoaConfig

CLEAN_LINK = LinkRealization(link_gain_db=0.0)


@pytest.fixture(scope="module")
def grass_service():
    return RangingService(environment=get_environment("grass")).calibrate(rng=0)


class TestDetectionParams:
    def test_paper_defaults(self):
        params = DetectionParams()
        assert params.threshold == 2
        assert params.k == 6
        assert params.m == 32

    def test_invalid(self):
        with pytest.raises(ValidationError):
            DetectionParams(threshold=0)
        with pytest.raises(ValidationError):
            DetectionParams(k=40, m=32)

    def test_threshold_above_the_count_ceiling_rejected(self):
        # Counts are clipped at 15 (4-bit packing), so a higher
        # threshold could never be reached: the service would never
        # detect anything.
        assert DetectionParams(threshold=15).threshold == 15
        with pytest.raises(ValidationError, match="cannot exceed 15"):
            DetectionParams(threshold=16)


class TestServiceConstruction:
    def test_invalid_mode(self):
        with pytest.raises(ValidationError):
            RangingService(environment=get_environment("grass"), mode="fancy")

    def test_link_simulator_built(self):
        service = RangingService(environment=get_environment("grass"))
        assert service.link_simulator is not None
        assert service.link_simulator.environment.name == "grass"


class TestMeasure:
    def test_accurate_at_short_range(self, grass_service):
        rng = np.random.default_rng(1)
        estimates = [
            grass_service.measure(6.0, link=CLEAN_LINK, rng=rng) for _ in range(20)
        ]
        estimates = [e for e in estimates if e is not None]
        assert len(estimates) >= 18
        errors = np.abs(np.array(estimates) - 6.0)
        assert np.median(errors) < 0.35

    def test_none_far_out_of_range(self, grass_service):
        rng = np.random.default_rng(2)
        svc = grass_service
        # Disable impulsive noise so out-of-range truly yields None.
        svc.link_simulator.long_noise_probability = 0.0
        try:
            results = [svc.measure(60.0, link=CLEAN_LINK, rng=rng) for _ in range(10)]
        finally:
            svc.link_simulator.long_noise_probability = 0.03
        assert all(r is None for r in results)

    def test_estimates_non_negative(self, grass_service):
        rng = np.random.default_rng(3)
        for d in (2.0, 9.0, 15.0):
            est = grass_service.measure(d, link=CLEAN_LINK, rng=rng)
            if est is not None:
                assert est >= 0.0

    def test_baseline_mode_runs(self):
        service = RangingService(
            environment=get_environment("urban"), mode="baseline"
        )
        rng = np.random.default_rng(4)
        estimates = [
            service.measure(8.0, link=CLEAN_LINK, rng=rng) for _ in range(10)
        ]
        assert any(e is not None for e in estimates)

    def test_baseline_noisier_than_refined(self):
        env = get_environment("urban")
        rng = np.random.default_rng(5)
        baseline = RangingService(environment=env, mode="baseline").calibrate(rng=rng)
        refined = RangingService(environment=env).calibrate(rng=rng)

        def large_error_rate(service):
            errors = []
            for d in np.linspace(5, 20, 16):
                for _ in range(6):
                    link = service.link_simulator.draw_link(rng)
                    est = service.measure(float(d), link=link, rng=rng)
                    if est is not None:
                        errors.append(abs(est - d))
            errors = np.array(errors)
            return (errors > 1.0).mean()

        assert large_error_rate(baseline) > large_error_rate(refined)


class TestDetectionProbability:
    def test_high_at_close_range(self, grass_service):
        p = grass_service.detection_probability(6.0, attempts=20, rng=0)
        assert p >= 0.9

    def test_low_beyond_range(self, grass_service):
        p = grass_service.detection_probability(40.0, attempts=20, within_m=3.0, rng=0)
        assert p <= 0.1

    def test_within_filter_stricter(self, grass_service):
        rng = np.random.default_rng(6)
        loose = grass_service.detection_probability(18.0, attempts=40, rng=rng)
        strict = grass_service.detection_probability(
            18.0, attempts=40, within_m=0.5, rng=rng
        )
        assert strict <= loose + 0.15

    def test_invalid_attempts(self, grass_service):
        with pytest.raises(ValidationError):
            grass_service.detection_probability(5.0, attempts=0)


class TestCalibration:
    def test_reduces_bias(self):
        raw = RangingService(environment=get_environment("grass"))
        calibrated = raw.calibrate(rng=0)
        rng = np.random.default_rng(7)

        def bias(service):
            errors = []
            for _ in range(40):
                est = service.measure(8.0, link=CLEAN_LINK, rng=rng)
                if est is not None:
                    errors.append(est - 8.0)
            return abs(float(np.median(errors)))

        assert bias(calibrated) <= bias(raw) + 0.02

    def test_offset_in_paper_band(self):
        # "A constant offset of 10-20 cm may be added to every ranging
        # measurement" without calibration.
        calibrated = RangingService(environment=get_environment("grass")).calibrate(rng=0)
        assert 0.0 <= calibrated.tdoa.calibration_offset_m <= 0.4

    def test_hostile_environment_raises(self):
        env = get_environment("grass").with_overrides(
            excess_attenuation_db_per_m=30.0,
            false_positive_rate=0.0,
            noise_burst_rate_hz=0.0,
        )
        service = RangingService(environment=env)
        service.link_simulator.long_noise_probability = 0.0
        with pytest.raises(CalibrationError):
            service.calibrate(distances_m=(15.0, 20.0), rounds=2, rng=0)

    def test_returns_new_service(self):
        raw = RangingService(environment=get_environment("grass"))
        calibrated = raw.calibrate(rng=0)
        assert calibrated is not raw
        assert raw.tdoa.calibration_offset_m == 0.0
