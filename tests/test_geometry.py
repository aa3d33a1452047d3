"""Tests for repro.core.geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import (
    all_pairs_circle_intersections,
    apply_transform,
    centroid,
    circle_intersections,
    compose_transforms,
    is_collinear,
    pairwise_distances,
    rigid_transform_matrix,
)
from repro.errors import ValidationError

finite_coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
angle = st.floats(-math.pi, math.pi, allow_nan=False)


class TestPairwiseDistances:
    def test_shape(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        dist = pairwise_distances(pts)
        assert dist.shape == (3, 3)

    def test_values(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        dist = pairwise_distances(pts)
        assert dist[0, 1] == pytest.approx(5.0)
        assert dist[1, 0] == pytest.approx(5.0)

    def test_diagonal_zero(self):
        pts = np.random.default_rng(0).uniform(0, 10, (6, 2))
        dist = pairwise_distances(pts)
        assert np.allclose(np.diag(dist), 0.0)

    def test_symmetry(self):
        pts = np.random.default_rng(1).uniform(0, 10, (8, 2))
        dist = pairwise_distances(pts)
        assert np.allclose(dist, dist.T)

    def test_empty(self):
        assert pairwise_distances(np.zeros((0, 2))).shape == (0, 0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValidationError):
            pairwise_distances(np.zeros((3, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            pairwise_distances(np.array([[0.0, np.nan]]))


class TestCircleIntersections:
    def test_two_intersections(self):
        pts = circle_intersections((0, 0), 1.0, (1, 0), 1.0)
        assert pts.shape == (2, 2)
        for p in pts:
            assert np.hypot(*p) == pytest.approx(1.0)
            assert np.hypot(p[0] - 1, p[1]) == pytest.approx(1.0)

    def test_tangent_single_point(self):
        pts = circle_intersections((0, 0), 1.0, (2, 0), 1.0)
        assert pts.shape == (1, 2)
        assert pts[0] == pytest.approx([1.0, 0.0])

    def test_disjoint(self):
        assert circle_intersections((0, 0), 1.0, (5, 0), 1.0).shape == (0, 2)

    def test_contained(self):
        assert circle_intersections((0, 0), 5.0, (1, 0), 1.0).shape == (0, 2)

    def test_concentric(self):
        assert circle_intersections((0, 0), 1.0, (0, 0), 2.0).shape == (0, 2)

    def test_zero_radius_returns_empty(self):
        assert circle_intersections((0, 0), 0.0, (1, 0), 1.0).shape == (0, 2)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            circle_intersections((0, 0), -1.0, (1, 0), 1.0)

    def test_known_intersection(self):
        # Circles r=5 at (0,0) and (6,0): intersections at (3, +-4).
        pts = circle_intersections((0, 0), 5.0, (6, 0), 5.0)
        ys = sorted(p[1] for p in pts)
        assert ys == pytest.approx([-4.0, 4.0])
        assert all(p[0] == pytest.approx(3.0) for p in pts)


class TestAllPairsCircleIntersections:
    def test_owner_bookkeeping(self):
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0]])
        radii = np.array([1.0, 1.0, 1.0])
        points, owners = all_pairs_circle_intersections(centers, radii)
        assert points.shape[0] == 2
        assert set(map(tuple, owners)) == {(0, 1)}

    def test_empty_when_nothing_intersects(self):
        centers = np.array([[0.0, 0.0], [100.0, 0.0]])
        radii = np.array([1.0, 1.0])
        points, owners = all_pairs_circle_intersections(centers, radii)
        assert points.shape == (0, 2)
        assert owners.shape == (0, 2)

    def test_radii_length_mismatch(self):
        with pytest.raises(ValidationError):
            all_pairs_circle_intersections(np.zeros((2, 2)) + [[0, 0], [1, 0]], [1.0])

    def test_triangulation_cluster(self):
        # Three circles through a common point produce a cluster there.
        target = np.array([2.0, 3.0])
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        radii = np.hypot(centers[:, 0] - target[0], centers[:, 1] - target[1])
        points, owners = all_pairs_circle_intersections(centers, radii)
        near = [p for p in points if np.hypot(*(p - target)) < 1e-6]
        assert len(near) == 3  # one per circle pair


class TestRigidTransforms:
    def test_identity(self):
        t = rigid_transform_matrix(0.0, 0.0, 0.0)
        assert np.allclose(t, np.eye(3))

    def test_translation(self):
        t = rigid_transform_matrix(0.0, 3.0, -2.0)
        out = apply_transform([[0.0, 0.0]], t)
        assert out[0] == pytest.approx([3.0, -2.0])

    def test_rotation_quarter_turn(self):
        t = rigid_transform_matrix(math.pi / 2, 0.0, 0.0)
        out = apply_transform([[1.0, 0.0]], t)
        # Row-vector convention: [1,0] @ R
        assert np.allclose(out[0], [0.0, -1.0], atol=1e-12) or np.allclose(
            out[0], [0.0, 1.0], atol=1e-12
        )

    def test_reflection_flips_orientation(self):
        t = rigid_transform_matrix(0.0, 0.0, 0.0, reflect=True)
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = apply_transform(tri, t)

        def signed_area(p):
            return 0.5 * (
                (p[1][0] - p[0][0]) * (p[2][1] - p[0][1])
                - (p[2][0] - p[0][0]) * (p[1][1] - p[0][1])
            )

        assert signed_area(tri) * signed_area(out) < 0

    def test_preserves_distances(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-10, 10, (6, 2))
        t = rigid_transform_matrix(0.7, 2.0, -5.0, reflect=True)
        out = apply_transform(pts, t)
        assert np.allclose(pairwise_distances(pts), pairwise_distances(out))

    def test_compose_order(self):
        t1 = rigid_transform_matrix(0.0, 1.0, 0.0)  # translate x+1
        t2 = rigid_transform_matrix(math.pi / 2, 0.0, 0.0)  # rotate
        pts = np.array([[0.0, 0.0]])
        combined = compose_transforms(t1, t2)
        step = apply_transform(apply_transform(pts, t1), t2)
        assert np.allclose(apply_transform(pts, combined), step)

    def test_rotation_undone_by_opposite_turn(self):
        # Row vectors: p' = p R + t, so p = p' R^T - t R^T, and R^T is
        # the turn by -theta.
        theta, t = 0.7, np.array([2.0, -5.0])
        forward = rigid_transform_matrix(theta, *t)
        back = rigid_transform_matrix(-theta, *(-t @ forward[:2, :2].T))
        assert np.allclose(compose_transforms(forward, back), np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.7, -2.5])
    def test_reflection_without_translation_is_an_involution(self, theta):
        mirror = rigid_transform_matrix(theta, 0.0, 0.0, reflect=True)
        assert np.allclose(compose_transforms(mirror, mirror), np.eye(3), atol=1e-12)

    def test_apply_rejects_bad_matrix(self):
        with pytest.raises(ValidationError):
            apply_transform([[0, 0]], np.eye(2))

    @given(theta=angle, tx=finite_coord, ty=finite_coord, reflect=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_rigidity_property(self, theta, tx, ty, reflect):
        t = rigid_transform_matrix(theta, tx, ty, reflect)
        linear = t[:2, :2]
        assert abs(abs(np.linalg.det(linear)) - 1.0) < 1e-9


class TestCentroidAndCollinearity:
    def test_centroid(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        assert centroid(pts) == pytest.approx([1.0, 1.0])

    def test_collinear_on_line(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [5.0, 5.0]])
        assert is_collinear(pts)

    def test_not_collinear(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert not is_collinear(pts)

    def test_two_points_collinear(self):
        assert is_collinear(np.array([[0.0, 0.0], [1.0, 2.0]]))

    def test_coincident_points_collinear(self):
        assert is_collinear(np.array([[1.0, 1.0]] * 4))

    def test_near_collinear_with_tolerance(self):
        pts = np.array([[0.0, 0.0], [10.0, 1e-12], [20.0, 0.0]])
        assert is_collinear(pts)
