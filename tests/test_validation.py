"""Tests for internal validation helpers and the exception hierarchy."""

import numpy as np
import pytest

from repro._validation import (
    as_finite_array,
    as_positions,
    check_non_negative,
    check_positive,
    check_probability,
    ensure_rng,
)
from repro.acoustics import NoiseBurstProcess, get_environment, hit_probability
from repro.errors import (
    CalibrationError,
    GraphDisconnectedError,
    InsufficientDataError,
    ReproError,
    ValidationError,
)
from repro.ranging import AcousticLinkSimulator, CampaignConfig, TdoaConfig, XsmRangingService


class TestAsPositions:
    def test_list_of_tuples(self):
        out = as_positions([(0, 0), (1, 2)])
        assert out.shape == (2, 2)
        assert out.dtype == float

    def test_single_point_flat(self):
        assert as_positions([1.0, 2.0]).shape == (1, 2)

    def test_empty_allowed(self):
        assert as_positions([], allow_empty=True).shape == (0, 2)

    def test_empty_rejected_by_default(self):
        with pytest.raises(ValidationError):
            as_positions([])

    def test_wrong_trailing_dim(self):
        with pytest.raises(ValidationError):
            as_positions(np.zeros((3, 3)))

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            as_positions([[np.nan, 0.0]])

    def test_name_in_message(self):
        with pytest.raises(ValidationError, match="anchor_positions"):
            as_positions(np.zeros((2, 5)), "anchor_positions")


class TestScalarChecks:
    def test_positive(self):
        assert check_positive(2.5, "x") == 2.5
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                check_positive(bad, "x")

    def test_non_negative(self):
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValidationError):
            check_non_negative(-0.1, "x")

    def test_probability(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValidationError):
                check_probability(bad, "p")


class TestFiniteArray:
    def test_basic(self):
        out = as_finite_array([1, 2, 3])
        assert out.dtype == float

    def test_ndim_enforced(self):
        with pytest.raises(ValidationError):
            as_finite_array([[1.0]], ndim=1)

    def test_inf_rejected(self):
        with pytest.raises(ValidationError):
            as_finite_array([1.0, float("inf")])


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = ensure_rng(7).random(3)
        b = ensure_rng(7).random(3)
        assert np.allclose(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_invalid_type(self):
        with pytest.raises(ValidationError):
            ensure_rng("seed")


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            ValidationError,
            InsufficientDataError,
            GraphDisconnectedError,
            CalibrationError,
        ):
            assert issubclass(exc, ReproError)

    def test_validation_is_value_error(self):
        assert issubclass(ValidationError, ValueError)
        assert issubclass(InsufficientDataError, ValueError)

    def test_runtime_flavors(self):
        assert issubclass(GraphDisconnectedError, RuntimeError)
        assert issubclass(CalibrationError, RuntimeError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise InsufficientDataError("not enough anchors")


GRASS = get_environment("grass")


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: CampaignConfig(rounds=0), id="campaign-rounds"),
        pytest.param(
            lambda: AcousticLinkSimulator(environment=GRASS, ramp_samples=0),
            id="link-ramp-samples",
        ),
        pytest.param(
            lambda: XsmRangingService(environment=GRASS, tone_fraction=0.3),
            id="xsm-tone-fraction",
        ),
        pytest.param(
            lambda: XsmRangingService(environment=GRASS).detection_probability(5.0, attempts=0),
            id="xsm-attempts",
        ),
        pytest.param(
            lambda: XsmRangingService(environment=GRASS).buffer_bytes(bits_per_sample=0),
            id="xsm-bits-per-sample",
        ),
        pytest.param(lambda: XsmRangingService.hardware_buffer_bytes(-1), id="xsm-hardware-buffer"),
        pytest.param(lambda: TdoaConfig().distance_from_index(-1), id="tdoa-negative-index"),
        pytest.param(
            lambda: hit_probability(0.0, saturation=0.5, floor=0.6), id="tone-detector-floor"
        ),
        pytest.param(
            lambda: NoiseBurstProcess(rate_hz=1.0, duration_s=0.01, fp_rate=0.1)
            .false_positive_track(-1, 16_000.0, 0.01),
            id="noise-window",
        ),
    ],
)
def test_input_checks_raise_repro_errors(call):
    """The documented contract: every library-raised exception derives
    from ReproError, so one ``except ReproError`` catches input checks."""
    with pytest.raises(ReproError):
        call()
