"""Tests for repro.core.transforms (rigid-transform estimation)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import apply_transform, pairwise_distances, rigid_transform_matrix
from repro.core.transforms import estimate_transform_closed_form, transform_residual
from repro.errors import InsufficientDataError, ValidationError

from _oracles import estimate_transform_minimize


def _random_points(rng, n=6, span=20.0):
    return rng.uniform(-span, span, (n, 2))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestClosedForm:
    @pytest.mark.parametrize("reflect", [False, True])
    @pytest.mark.parametrize("theta", [0.0, 0.5, -1.2, math.pi - 0.01])
    def test_exact_recovery(self, rng, theta, reflect):
        src = _random_points(rng)
        t = rigid_transform_matrix(theta, 3.0, -7.0, reflect)
        tgt = apply_transform(src, t)
        est = estimate_transform_closed_form(src, tgt)
        assert est.rmse < 1e-9
        assert est.reflected == reflect
        assert np.allclose(est.apply(src), tgt, atol=1e-8)

    def test_two_point_minimum(self, rng):
        src = np.array([[0.0, 0.0], [5.0, 0.0]])
        t = rigid_transform_matrix(0.3, 1.0, 1.0)
        tgt = apply_transform(src, t)
        est = estimate_transform_closed_form(src, tgt)
        assert est.rmse < 1e-9

    def test_one_point_rejected(self):
        with pytest.raises(InsufficientDataError):
            estimate_transform_closed_form([[0.0, 0.0]], [[1.0, 1.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            estimate_transform_closed_form(
                [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
            )

    def test_noise_tolerance(self, rng):
        src = _random_points(rng, n=10)
        t = rigid_transform_matrix(1.0, -4.0, 2.0)
        tgt = apply_transform(src, t) + rng.normal(0, 0.1, (10, 2))
        est = estimate_transform_closed_form(src, tgt)
        assert est.rmse < 0.3

    def test_error_field_is_sum_of_squares(self, rng):
        src = _random_points(rng)
        tgt = _random_points(rng)
        est = estimate_transform_closed_form(src, tgt)
        assert est.error == pytest.approx(
            transform_residual(src, tgt, est.matrix)
        )
        assert est.rmse == pytest.approx(math.sqrt(est.error / src.shape[0]))

    def test_n_correspondences_recorded(self, rng):
        src = _random_points(rng, n=7)
        est = estimate_transform_closed_form(src, src)
        assert est.n_correspondences == 7

    def test_identity_on_same_points(self, rng):
        src = _random_points(rng)
        est = estimate_transform_closed_form(src, src)
        assert np.allclose(est.apply(src), src, atol=1e-9)

    @given(
        theta=st.floats(-3.1, 3.1, allow_nan=False),
        tx=st.floats(-50, 50, allow_nan=False),
        ty=st.floats(-50, 50, allow_nan=False),
        reflect=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_recovery_property(self, theta, tx, ty, reflect, seed):
        gen = np.random.default_rng(seed)
        src = _random_points(gen, n=5)
        # Skip degenerate (near-coincident) point sets.
        if np.max(pairwise_distances(src)) < 1e-3:
            return
        t = rigid_transform_matrix(theta, tx, ty, reflect)
        tgt = apply_transform(src, t)
        est = estimate_transform_closed_form(src, tgt)
        assert est.rmse < 1e-6


class TestMinimize:
    @pytest.mark.parametrize("reflect", [False, True])
    def test_exact_recovery(self, rng, reflect):
        src = _random_points(rng)
        t = rigid_transform_matrix(-0.9, 10.0, 5.0, reflect)
        tgt = apply_transform(src, t)
        est = estimate_transform_minimize(src, tgt)
        assert est.rmse < 1e-5

    def test_matches_closed_form_on_clean_data(self, rng):
        src = _random_points(rng)
        t = rigid_transform_matrix(0.4, 1.0, 2.0)
        tgt = apply_transform(src, t)
        cf = estimate_transform_closed_form(src, tgt)
        mn = estimate_transform_minimize(src, tgt)
        assert np.allclose(cf.apply(src), mn.apply(src), atol=1e-4)

    def test_not_worse_than_closed_form_on_noise(self, rng):
        src = _random_points(rng, n=8)
        t = rigid_transform_matrix(2.0, 0.0, -3.0, reflect=True)
        tgt = apply_transform(src, t) + rng.normal(0, 0.2, (8, 2))
        cf = estimate_transform_closed_form(src, tgt)
        mn = estimate_transform_minimize(src, tgt)
        assert mn.error <= cf.error * 1.0001


class TestTransformResidual:
    def test_zero_for_identity(self, rng):
        src = _random_points(rng)
        assert transform_residual(src, src, np.eye(3)) == pytest.approx(0.0)

    def test_known_offset(self):
        src = np.array([[0.0, 0.0], [1.0, 0.0]])
        tgt = src + [0.0, 2.0]
        assert transform_residual(src, tgt, np.eye(3)) == pytest.approx(8.0)
