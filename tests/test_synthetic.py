"""Tests for synthetic range generation (repro.ranging.synthetic)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _edge_oracle import assert_same_edges, per_pair_edge_list, per_pair_gaussian_ranges
from repro.core.measurements import EdgeList, MeasurementSet
from repro.deploy import square_grid
from repro.errors import ValidationError
from repro.ranging.synthetic import (
    augment_with_gaussian_ranges,
    eligible_pairs,
    gaussian_edges,
    gaussian_ranges,
)
from repro.scenarios import (
    AnchorSpec,
    DeploymentSpec,
    RangingSpec,
    ScenarioSpec,
    SolverSpec,
    draw_ranges,
    scenario_trial,
)


@pytest.fixture(scope="module")
def grid():
    return square_grid(4, 4, spacing_m=10.0)


class TestEligiblePairs:
    def test_respects_range(self, grid):
        pairs = eligible_pairs(grid, 10.5)
        dists = np.hypot(*(grid[pairs[:, 0]] - grid[pairs[:, 1]]).T)
        assert dists.max() <= 10.5
        # Exactly the 24 nearest-neighbor edges of a 4x4 grid.
        assert len(pairs) == 24

    def test_ordering(self, grid):
        pairs = eligible_pairs(grid, 15.0)
        assert np.all(pairs[:, 0] < pairs[:, 1])

    def test_invalid_range(self, grid):
        with pytest.raises(ValidationError):
            eligible_pairs(grid, 0.0)


class TestGaussianRanges:
    def test_error_statistics(self, grid):
        ms = gaussian_ranges(grid, max_range_m=22.0, sigma_m=0.33, rng=0)
        errors = ms.signed_errors()
        assert abs(errors.mean()) < 0.15
        assert 0.2 < errors.std() < 0.5

    def test_zero_sigma_exact(self, grid):
        ms = gaussian_ranges(grid, max_range_m=22.0, sigma_m=0.0, rng=0)
        assert np.allclose(ms.signed_errors(), 0.0)

    def test_max_range_respected(self, grid):
        ms = gaussian_ranges(grid, max_range_m=10.5, rng=0)
        for m in ms:
            assert m.true_distance <= 10.5

    def test_explicit_pairs(self, grid):
        pairs = np.array([[0, 1], [0, 2]])
        ms = gaussian_ranges(grid, pairs=pairs, rng=0)
        assert len(ms) == 2

    def test_non_negative(self, grid):
        ms = gaussian_ranges(grid, max_range_m=22.0, sigma_m=10.0, rng=0)
        for m in ms:
            assert m.distance >= 0.0


class TestAugmentation:
    def test_fills_unmeasured_pairs(self, grid):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 10.0, true_distance=10.0)
        out = augment_with_gaussian_ranges(ms, grid, max_range_m=10.5, rng=0)
        assert len(out.undirected_pairs) == 24  # full NN edge set

    def test_does_not_duplicate_measured(self, grid):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 55.0)  # deliberately wrong; must survive
        out = augment_with_gaussian_ranges(ms, grid, max_range_m=10.5, rng=0)
        assert out.distances(0, 1)[0] == pytest.approx(55.0)

    def test_n_extra_subsample(self, grid):
        ms = MeasurementSet()
        out = augment_with_gaussian_ranges(ms, grid, max_range_m=10.5, n_extra=5, rng=0)
        assert len(out.undirected_pairs) == 5

    def test_n_extra_larger_than_pool(self, grid):
        ms = MeasurementSet()
        out = augment_with_gaussian_ranges(
            ms, grid, max_range_m=10.5, n_extra=10_000, rng=0
        )
        assert len(out.undirected_pairs) == 24

    def test_negative_n_extra(self, grid):
        with pytest.raises(ValidationError):
            augment_with_gaussian_ranges(MeasurementSet(), grid, n_extra=-1)

    def test_edge_list_form_preserves_weights(self, grid):
        measured = EdgeList(
            pairs=np.array([[0, 1]]),
            distances=np.array([10.0]),
            weights=np.array([0.4]),
        )
        out = augment_with_gaussian_ranges(
            measured, grid, max_range_m=10.5, synthetic_weight=0.9, rng=0
        )
        assert isinstance(out, EdgeList)
        assert out.weights[0] == 0.4
        assert np.all(out.weights[1:] == 0.9)
        assert len(out) == 24

    def test_invalid_type(self, grid):
        with pytest.raises(ValidationError):
            augment_with_gaussian_ranges([(0, 1, 5.0)], grid)


@given(sigma=st.floats(0.0, 2.0), seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_gaussian_ranges_never_negative(sigma, seed):
    grid = square_grid(2, 2, spacing_m=3.0)
    ms = gaussian_ranges(grid, max_range_m=10.0, sigma_m=sigma, rng=seed)
    assert all(m.distance >= 0 for m in ms)


@st.composite
def _draws(draw):
    """A layout, a range, a sigma (often exactly 0) and optional pairs.

    Explicit pairs may come in either order and repeat, so the export
    has bidirectional and multi-estimate pairs to collapse.
    """
    n_nodes = draw(st.integers(1, 10))
    coordinate = st.floats(0.0, 30.0, allow_nan=False)
    positions = np.array(
        draw(st.lists(st.tuples(coordinate, coordinate), min_size=n_nodes, max_size=n_nodes)),
        dtype=float,
    )
    max_range = draw(st.floats(0.5, 45.0))
    sigma = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    pairs = None
    if n_nodes >= 2 and draw(st.booleans()):
        pair = st.tuples(st.integers(0, n_nodes - 1), st.integers(0, n_nodes - 1))
        pairs = np.array(
            [p for p in draw(st.lists(pair, max_size=12)) if p[0] != p[1]], dtype=np.int64
        ).reshape(-1, 2)
    return positions, max_range, sigma, pairs, draw(st.integers(0, 2**32 - 1))


@given(case=_draws())
@settings(max_examples=200, deadline=None)
def test_columnar_draw_matches_per_measurement_draw(case):
    positions, max_range, sigma, pairs, seed = case
    kwargs = dict(max_range_m=max_range, sigma_m=sigma, pairs=pairs)
    rng_edges = np.random.default_rng(seed)
    edges = gaussian_edges(positions, rng=rng_edges, **kwargs)

    rng_set = np.random.default_rng(seed)
    assert_same_edges(edges, gaussian_ranges(positions, rng=rng_set, **kwargs).to_edge_list())
    assert rng_edges.bit_generator.state == rng_set.bit_generator.state

    rng_loop = np.random.default_rng(seed)
    loop_pairs = eligible_pairs(positions, max_range) if pairs is None else pairs
    oracle = per_pair_gaussian_ranges(positions, loop_pairs, sigma, rng_loop)
    assert_same_edges(edges, per_pair_edge_list(oracle))
    assert rng_edges.bit_generator.state == rng_loop.bit_generator.state

    if pairs is None:
        rng_trial = np.random.default_rng(seed)
        spec = RangingSpec(model="gaussian", max_range_m=max_range, sigma_m=sigma)
        assert_same_edges(draw_ranges(spec, positions, rng_trial), edges)
        assert rng_trial.bit_generator.state == rng_edges.bit_generator.state


class TestGaussianEdges:
    def test_zero_sigma_is_the_truth(self, grid):
        edges = gaussian_edges(grid, max_range_m=10.5, sigma_m=0.0, rng=0)
        truth = np.hypot(*(grid[edges.pairs[:, 0]] - grid[edges.pairs[:, 1]]).T)
        assert np.array_equal(edges.distances, truth)
        assert np.all(edges.weights == 1.0)

    def test_explicit_pairs_collapse_like_the_set(self, grid):
        pairs = np.array([[2, 0], [0, 2], [5, 1], [0, 2], [3, 4]])
        edges = gaussian_edges(grid, pairs=pairs, rng=3)
        assert edges.pairs.tolist() == [[0, 2], [1, 5], [3, 4]]
        ms = gaussian_ranges(grid, pairs=pairs, rng=3)
        assert_same_edges(edges, per_pair_edge_list(ms))

    def test_no_pair_in_range_draws_nothing(self, grid):
        rng = np.random.default_rng(11)
        before = rng.bit_generator.state
        edges = gaussian_edges(grid, max_range_m=1.0, rng=rng)
        assert edges.pairs.shape == (0, 2) and edges.pairs.dtype == np.int64
        assert edges.distances.shape == edges.weights.shape == (0,)
        assert rng.bit_generator.state == before
        spec = RangingSpec(max_range_m=1.0)
        assert_same_edges(draw_ranges(spec, grid, np.random.default_rng(11)), edges)

    @pytest.mark.parametrize("algorithm", ["multilateration", "lss", "distributed-lss"])
    def test_trial_without_edges_reports_nan(self, algorithm):
        anchor_free = algorithm != "multilateration"
        spec = ScenarioSpec(
            "no-edges",
            deployment=DeploymentSpec(kind="grid", n_nodes=9, spacing_m=10.0),
            anchors=AnchorSpec(strategy="none", fraction=None)
            if anchor_free
            else AnchorSpec(strategy="random", fraction=None, count=3),
            ranging=RangingSpec(max_range_m=5.0),
            solver=SolverSpec(algorithm=algorithm),
            n_trials=1,
        )
        metrics = scenario_trial(np.random.default_rng(0), spec=spec)
        for key in ("fraction_localized", "mean_error_m", "median_error_m"):
            assert np.isnan(metrics[key])

    @pytest.mark.parametrize("bad", [[[0, 16]], [[-1, 2]], [[3, 3]]])
    def test_bad_explicit_pairs_rejected(self, grid, bad):
        with pytest.raises(ValidationError):
            gaussian_edges(grid, pairs=np.array(bad), rng=0)
        with pytest.raises(ValidationError):
            gaussian_ranges(grid, pairs=np.array(bad), rng=0)

    def test_augmented_edge_list_is_the_set_export(self, grid):
        measured = EdgeList(
            pairs=np.array([[0, 1]]), distances=np.array([10.0]), weights=np.array([1.0])
        )
        out = augment_with_gaussian_ranges(measured, grid, max_range_m=10.5, n_extra=9, rng=4)
        via_set = augment_with_gaussian_ranges(
            MeasurementSet.from_edge_arrays(measured.pairs, measured.distances),
            grid,
            max_range_m=10.5,
            n_extra=9,
            rng=4,
        ).to_edge_list()
        order = np.lexsort((out.pairs[:, 1], out.pairs[:, 0]))
        assert np.array_equal(out.pairs[order], via_set.pairs)
        assert out.distances[order].tobytes() == via_set.distances.tobytes()
