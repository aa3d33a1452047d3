"""Tests for deployment generators (repro.deploy)."""

import numpy as np
import pytest

from repro.core.geometry import pairwise_distances
from repro.deploy import (
    boundary_anchors,
    offset_grid,
    paper_grid,
    parking_lot_layout,
    random_anchors,
    spread_anchors,
    square_grid,
    town_layout,
    uniform_random_layout,
)
from repro.errors import DeploymentInfeasibleError, ValidationError


class TestOffsetGrid:
    def test_default_shape(self):
        grid = offset_grid()
        assert grid.shape == (49, 2)

    def test_spacings(self):
        grid = offset_grid()
        dist = pairwise_distances(grid)
        np.fill_diagonal(dist, np.inf)
        nearest = dist.min(axis=1)
        # Every node's nearest neighbor is at 9 m or ~10.06 m.
        diag = np.hypot(9.0, 4.5)
        assert np.all(
            np.isclose(nearest, 9.0, atol=0.01)
            | np.isclose(nearest, diag, atol=0.01)
        )

    def test_paper_failed_node_position_exists(self):
        grid = offset_grid()
        assert np.any(np.all(np.isclose(grid, [0.0, 4.5]), axis=1))

    def test_column_structure(self):
        grid = offset_grid(columns=3, rows=2, column_spacing_m=5.0)
        xs = sorted(set(grid[:, 0]))
        assert xs == [0.0, 5.0, 10.0]

    def test_invalid(self):
        with pytest.raises(ValidationError):
            offset_grid(columns=0)
        with pytest.raises(ValidationError):
            offset_grid(column_spacing_m=0.0)
        with pytest.raises(ValidationError):
            offset_grid(offset_m=-1.0)


class TestPaperGrid:
    def test_node_counts(self):
        assert paper_grid(49).shape == (49, 2)
        assert paper_grid(47).shape == (47, 2)
        assert paper_grid(46).shape == (46, 2)

    def test_failed_node_dropped_first(self):
        grid = paper_grid(48)
        assert not np.any(np.all(np.isclose(grid, [0.0, 4.5]), axis=1))

    def test_deterministic_default(self):
        assert np.allclose(paper_grid(46), paper_grid(46))

    def test_invalid_count(self):
        with pytest.raises(ValidationError):
            paper_grid(0)
        with pytest.raises(ValidationError):
            paper_grid(50)


class TestSquareGrid:
    def test_shape_and_spacing(self):
        grid = square_grid(3, 2, spacing_m=4.0)
        assert grid.shape == (6, 2)
        assert grid[:, 0].max() == 8.0
        assert grid[:, 1].max() == 4.0

    def test_invalid(self):
        with pytest.raises(ValidationError):
            square_grid(0, 3)


class TestRandomLayouts:
    def test_uniform_count_and_bounds(self):
        pts = uniform_random_layout(30, width_m=50.0, height_m=40.0, rng=0)
        assert pts.shape == (30, 2)
        assert pts[:, 0].min() >= 0 and pts[:, 0].max() <= 50
        assert pts[:, 1].min() >= 0 and pts[:, 1].max() <= 40

    def test_uniform_min_separation(self):
        pts = uniform_random_layout(
            20, width_m=100.0, height_m=100.0, min_separation_m=10.0, rng=1
        )
        dist = pairwise_distances(pts)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= 10.0

    def test_uniform_impossible_density(self):
        with pytest.raises(ValidationError):
            uniform_random_layout(
                100, width_m=10.0, height_m=10.0, min_separation_m=9.0, rng=0
            )

    def test_town_default(self):
        pts = town_layout(59, rng=2005)
        assert pts.shape == (59, 2)
        dist = pairwise_distances(pts)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= 6.0

    def test_town_determinism(self):
        assert np.allclose(town_layout(30, rng=5), town_layout(30, rng=5))

    def test_town_nodes_near_streets(self):
        pts = town_layout(40, blocks_x=2, blocks_y=2, block_size_m=30.0, rng=3)
        # Every node within jitter distance of some street grid line.
        lines = [0.0, 30.0, 60.0]
        near_street = [
            min(abs(x - g) for g in lines) <= 4.0 or min(abs(y - g) for g in lines) <= 4.0
            for x, y in pts
        ]
        assert all(near_street)

    def test_parking_lot(self):
        pts = parking_lot_layout(15, rng=4)
        assert pts.shape == (15, 2)
        assert pts.max() <= 25.0

    def test_invalid_counts(self):
        with pytest.raises(ValidationError):
            uniform_random_layout(0)
        with pytest.raises(ValidationError):
            town_layout(0)

    @pytest.mark.parametrize(
        "layout",
        [
            lambda: uniform_random_layout(
                160, width_m=60.0, height_m=60.0, min_separation_m=4.0, rng=1
            ),
            lambda: parking_lot_layout(45, rng=0),
            lambda: town_layout(300, rng=0),
        ],
        ids=["uniform", "parking-lot", "town"],
    )
    def test_sampler_give_up_is_deployment_infeasible(self, layout):
        """Valid arguments past the sampler's reach: the give-up has its
        own error, still a ValidationError for existing callers."""
        with pytest.raises(DeploymentInfeasibleError, match="could not place"):
            layout()
        assert issubclass(DeploymentInfeasibleError, ValidationError)

    @pytest.mark.parametrize(
        "layout",
        [
            lambda: uniform_random_layout(0),
            lambda: uniform_random_layout(5, width_m=-1.0),
            lambda: town_layout(0),
            lambda: town_layout(5, blocks_x=0),
            lambda: town_layout(5, min_separation_m=-1.0),
        ],
    )
    def test_bad_arguments_stay_plain_validation_errors(self, layout):
        with pytest.raises(ValidationError) as info:
            layout()
        assert not isinstance(info.value, DeploymentInfeasibleError)


class TestAnchors:
    def setup_method(self):
        self.positions = square_grid(5, 5, spacing_m=10.0)

    def test_random_count_and_uniqueness(self):
        idx = random_anchors(25, 6, rng=0)
        assert len(idx) == 6
        assert len(set(idx.tolist())) == 6
        assert idx.max() < 25

    def test_random_invalid(self):
        with pytest.raises(ValidationError):
            random_anchors(10, 0)
        with pytest.raises(ValidationError):
            random_anchors(10, 11)

    def test_spread_deterministic(self):
        a = spread_anchors(self.positions, 4)
        b = spread_anchors(self.positions, 4)
        assert np.array_equal(a, b)

    def test_spread_covers_extremes(self):
        idx = spread_anchors(self.positions, 4, start=0)
        chosen = self.positions[idx]
        # Farthest-point sampling from a corner hits distant corners.
        assert np.any(np.all(chosen == [40.0, 40.0], axis=1))

    def test_spread_better_than_random_spread(self):
        spread_idx = spread_anchors(self.positions, 5)
        rng = np.random.default_rng(3)
        spread_min = pairwise_distances(self.positions[spread_idx])
        np.fill_diagonal(spread_min, np.inf)
        random_idx = random_anchors(25, 5, rng=rng)
        rand_min = pairwise_distances(self.positions[random_idx])
        np.fill_diagonal(rand_min, np.inf)
        assert spread_min.min() >= rand_min.min()

    def test_spread_invalid_start(self):
        with pytest.raises(ValidationError):
            spread_anchors(self.positions, 3, start=99)

    def test_boundary_prefers_periphery(self):
        idx = boundary_anchors(self.positions, 8)
        center = self.positions.mean(axis=0)
        chosen_dist = np.hypot(*(self.positions[idx] - center).T)
        others = np.setdiff1d(np.arange(25), idx)
        other_dist = np.hypot(*(self.positions[others] - center).T)
        assert chosen_dist.min() >= other_dist.max() - 1e-9
