"""Tests for repro.core.multilateration."""

import numpy as np
import pytest
from scipy.optimize import least_squares

from repro.core.measurements import MeasurementSet
from repro.core.multilateration import (
    intersection_consistency_filter,
    localize_network,
    multilaterate,
)
from repro.errors import InsufficientDataError, ValidationError


@pytest.fixture
def anchors():
    return np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0], [20.0, 20.0]])


def distances_to(anchors, target):
    target = np.asarray(target, dtype=float)
    return np.hypot(anchors[:, 0] - target[0], anchors[:, 1] - target[1])


def gradient_fit(anchors, distances):
    result = multilaterate(anchors, distances)
    return result.position, result.residual


def lm_fit(anchors, distances):
    """Levenberg-Marquardt cross-check oracle for the gradient-descent
    solver: scipy's ``least_squares`` on the same unit-weight objective,
    from the same anchor-centroid start."""
    anchors = np.asarray(anchors, dtype=float)

    def residuals(position):
        diff = anchors - position
        return np.hypot(diff[:, 0], diff[:, 1]) - distances

    result = least_squares(residuals, x0=anchors.mean(axis=0), method="lm")
    return result.x, float(2.0 * result.cost)


class TestMultilaterate:
    @pytest.mark.parametrize("fit", [gradient_fit, lm_fit], ids=["gradient", "lm"])
    def test_exact_recovery(self, anchors, fit):
        target = [7.0, 11.0]
        position, residual = fit(anchors, distances_to(anchors, target))
        assert position == pytest.approx(target, abs=1e-4)
        assert residual < 1e-6

    def test_noisy_recovery(self, anchors):
        rng = np.random.default_rng(0)
        target = [12.0, 5.0]
        dists = distances_to(anchors, target) + rng.normal(0, 0.2, 4)
        result = multilaterate(anchors, dists)
        assert np.hypot(*(result.position - target)) < 1.0

    def test_three_anchors_minimum(self):
        anchors3 = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        target = [3.0, 4.0]
        result = multilaterate(anchors3, distances_to(anchors3, target))
        assert result.position == pytest.approx(target, abs=1e-3)

    def test_too_few_anchors(self):
        with pytest.raises(InsufficientDataError):
            multilaterate([[0, 0], [1, 0]], [1.0, 1.0])

    def test_collinear_anchors_rejected(self):
        line = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        with pytest.raises(InsufficientDataError):
            multilaterate(line, [5.0, 5.0, 15.0], consistency_check=False)

    def test_negative_distance_rejected(self, anchors):
        with pytest.raises(ValidationError):
            multilaterate(anchors, [-1.0, 5.0, 5.0, 5.0])

    def test_weights_shape_enforced(self, anchors):
        with pytest.raises(ValidationError):
            multilaterate(anchors, distances_to(anchors, [5, 5]), weights=[1.0])

    def test_weight_downweights_bad_anchor(self, anchors):
        target = [10.0, 10.0]
        dists = distances_to(anchors, target)
        dists[0] += 8.0  # corrupt one anchor's range
        heavy = multilaterate(
            anchors, dists, weights=[1.0, 1.0, 1.0, 1.0], consistency_check=False
        )
        light = multilaterate(
            anchors, dists, weights=[0.01, 1.0, 1.0, 1.0], consistency_check=False
        )
        err_heavy = np.hypot(*(heavy.position - target))
        err_light = np.hypot(*(light.position - target))
        assert err_light < err_heavy

    def test_initial_guess_respected(self, anchors):
        target = [4.0, 4.0]
        result = multilaterate(
            anchors, distances_to(anchors, target), initial=[4.5, 4.5]
        )
        assert result.position == pytest.approx(target, abs=1e-3)

    def test_bad_initial_shape(self, anchors):
        with pytest.raises(ValidationError):
            multilaterate(anchors, distances_to(anchors, [5, 5]), initial=[1.0])

    def test_unknown_solver(self, anchors):
        # A single-node fit has one solver: there is nothing to select.
        with pytest.raises(TypeError):
            multilaterate(anchors, distances_to(anchors, [5, 5]), solver="sgd")

    def test_min_anchors_below_three_rejected(self, anchors):
        with pytest.raises(ValidationError):
            multilaterate(anchors, distances_to(anchors, [5, 5]), min_anchors=2)

    def test_consistency_filter_improves_with_bad_anchor(self, anchors):
        target = [10.0, 10.0]
        extra = np.vstack([anchors, [[40.0, 10.0]]])
        dists = distances_to(extra, target)
        dists[4] *= 1.6  # badly wrong range on the extra anchor
        filtered = multilaterate(extra, dists, consistency_check=True)
        unfiltered = multilaterate(extra, dists, consistency_check=False)
        err_f = np.hypot(*(filtered.position - target))
        err_u = np.hypot(*(unfiltered.position - target))
        assert err_f <= err_u + 1e-9
        assert 4 not in filtered.anchors_used


class TestIntersectionConsistencyFilter:
    def test_keeps_consistent(self, anchors):
        target = [9.0, 9.0]
        kept = intersection_consistency_filter(anchors, distances_to(anchors, target))
        assert list(kept) == [0, 1, 2, 3]

    def test_drops_disjoint_circle(self, anchors):
        target = [9.0, 9.0]
        extra = np.vstack([anchors, [[100.0, 100.0]]])
        dists = np.append(distances_to(anchors, target), 5.0)
        kept = intersection_consistency_filter(extra, dists)
        assert 4 not in kept

    def test_returns_all_when_too_few_survive(self):
        anchors = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
        # Ranges too small to intersect anything.
        kept = intersection_consistency_filter(anchors, [1.0, 1.0, 1.0])
        assert list(kept) == [0, 1, 2]

    def test_two_anchors_passthrough(self):
        kept = intersection_consistency_filter([[0, 0], [5, 0]], [2.0, 2.0])
        assert list(kept) == [0, 1]

    def test_zero_distance_tolerated(self, anchors):
        dists = distances_to(anchors, [9.0, 9.0])
        dists[0] = 0.0
        kept = intersection_consistency_filter(anchors, dists)
        assert 0 not in kept or len(kept) == 4  # must not raise

    def test_bad_radius_count(self, anchors):
        with pytest.raises(ValidationError):
            intersection_consistency_filter(anchors, [1.0, 2.0])


def _network_measurements(positions, anchor_idx, pairs, sigma=0.0, rng=None):
    rng = np.random.default_rng(rng)
    ms = MeasurementSet()
    for i, j in pairs:
        truth = float(np.hypot(*(positions[i] - positions[j])))
        noisy = max(0.0, truth + (rng.normal(0, sigma) if sigma else 0.0))
        ms.add_distance(int(i), int(j), noisy, true_distance=truth)
    return ms


class TestLocalizeNetwork:
    def setup_method(self):
        # 3x3 grid, corners as anchors.
        xs, ys = np.meshgrid([0.0, 10.0, 20.0], [0.0, 10.0, 20.0])
        self.positions = np.stack([xs.ravel(), ys.ravel()], axis=1)
        self.anchor_idx = [0, 2, 6, 8]
        self.all_pairs = [
            (i, j) for i in range(9) for j in range(i + 1, 9)
            if np.hypot(*(self.positions[i] - self.positions[j])) <= 15.0
        ]

    def test_full_localization_exact(self):
        # Corners + center as anchors: every edge node sees three
        # non-collinear anchors within range.
        anchor_idx = [0, 2, 4, 6, 8]
        ms = _network_measurements(self.positions, anchor_idx, self.all_pairs)
        anchors = {i: self.positions[i] for i in anchor_idx}
        result = localize_network(ms, anchors, 9)
        non_anchor = ~result.is_anchor
        assert result.localized[non_anchor].sum() == 4
        localized = result.localized & non_anchor
        errs = np.hypot(
            *(result.positions[localized] - self.positions[localized]).T
        )
        assert errs.max() < 0.5

    def test_corner_anchors_reach_only_center(self):
        # With corner anchors only, just the center node has three
        # anchor measurements within the 15 m cutoff.
        ms = _network_measurements(self.positions, self.anchor_idx, self.all_pairs)
        anchors = {i: self.positions[i] for i in self.anchor_idx}
        result = localize_network(ms, anchors, 9)
        non_anchor = ~result.is_anchor
        localized = result.localized & non_anchor
        assert list(np.nonzero(localized)[0]) == [4]

    def test_anchor_rows_carry_known_positions(self):
        ms = _network_measurements(self.positions, self.anchor_idx, self.all_pairs)
        anchors = {i: self.positions[i] for i in self.anchor_idx}
        result = localize_network(ms, anchors, 9)
        for i in self.anchor_idx:
            assert np.allclose(result.positions[i], self.positions[i])
            assert result.is_anchor[i]

    def test_insufficient_anchor_links_stay_unlocalized(self):
        # Node 4 (center) only measured to one anchor: unlocalizable.
        pairs = [(0, 4)]
        ms = _network_measurements(self.positions, self.anchor_idx, pairs)
        anchors = {i: self.positions[i] for i in self.anchor_idx}
        result = localize_network(ms, anchors, 9)
        assert not result.localized[4]
        assert np.isnan(result.positions[4]).all()
        assert result.anchors_per_node[4] == 1

    def test_progressive_extends_coverage(self):
        # Chain: node 4 sees three anchors; node 1 sees node 4 + two anchors.
        pairs = [(0, 4), (2, 4), (8, 4), (0, 1), (2, 1), (1, 4)]
        ms = _network_measurements(self.positions, self.anchor_idx, pairs)
        anchors = {i: self.positions[i] for i in self.anchor_idx}
        plain = localize_network(ms, anchors, 9, progressive=False)
        progressive = localize_network(ms, anchors, 9, progressive=True)
        assert not plain.localized[1]
        assert progressive.localized[1]

    def test_average_anchors_per_node(self):
        ms = _network_measurements(self.positions, self.anchor_idx, self.all_pairs)
        anchors = {i: self.positions[i] for i in self.anchor_idx}
        result = localize_network(ms, anchors, 9)
        assert result.average_anchors_per_node > 0

    def test_edge_list_input(self):
        ms = _network_measurements(self.positions, self.anchor_idx, self.all_pairs)
        anchors = {i: self.positions[i] for i in self.anchor_idx}
        result = localize_network(ms.to_edge_list(), anchors, 9)
        assert result.localized.sum() >= 5

    def test_invalid_measurement_type(self):
        with pytest.raises(ValidationError):
            localize_network([(0, 1, 5.0)], {0: (0, 0)}, 2)

    def test_anchor_id_out_of_range(self):
        ms = _network_measurements(self.positions, self.anchor_idx, self.all_pairs)
        with pytest.raises(ValidationError):
            localize_network(ms, {99: (0.0, 0.0)}, 9)

    def test_bad_anchor_position_shape(self):
        ms = _network_measurements(self.positions, self.anchor_idx, self.all_pairs)
        with pytest.raises(ValidationError):
            localize_network(ms, {0: (0.0, 0.0, 0.0)}, 9)

    def test_all_anchors_everything_localized(self):
        ms = _network_measurements(self.positions, list(range(9)), self.all_pairs)
        anchors = {i: self.positions[i] for i in range(9)}
        result = localize_network(ms, anchors, 9)
        assert result.localized.all()
