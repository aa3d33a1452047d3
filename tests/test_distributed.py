"""Tests for repro.core.distributed (distributed LSS pipeline)."""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from repro.core import distributed
from repro.core.distributed import (
    DistributedConfig,
    build_local_maps,
    build_transforms,
    distributed_localize,
)
from repro.core.evaluation import align_to_reference, evaluate_localization
from repro.core.measurements import EdgeList, MeasurementSet
from repro.core.transforms import estimate_transform_closed_form
from repro.deploy import square_grid
from repro.errors import InsufficientDataError, ValidationError
from repro.ranging import gaussian_ranges


@pytest.fixture(scope="module")
def grid_scenario():
    positions = square_grid(4, 4, spacing_m=10.0)
    ranges = gaussian_ranges(positions, max_range_m=16.0, sigma_m=0.05, rng=3)
    return positions, ranges


def _scalar_local_maps():
    """Substitute the one-map-at-a-time oracle for the batched solve."""
    return mock.patch.object(
        distributed, "_solve_local_maps_batched", distributed._solve_local_maps_scalar
    )


def _solver(name):
    """The context that runs step 1 on the named path."""
    return _scalar_local_maps() if name == "scalar" else nullcontext()


def _closed_form_transforms(local_maps, min_shared=2):
    """Per-pair closed-form fits: the reference of ``build_transforms``."""
    transforms = {}
    for a in sorted(local_maps):
        for b in local_maps[a].members:
            if b <= a or b not in local_maps:
                continue
            shared = sorted(set(local_maps[a].members) & set(local_maps[b].members))
            if len(shared) < min_shared:
                continue
            source_b = local_maps[b].coords_for(shared)
            target_a = local_maps[a].coords_for(shared)
            try:
                into_a = estimate_transform_closed_form(source_b, target_a)
                into_b = estimate_transform_closed_form(target_a, source_b)
            except InsufficientDataError:
                continue
            transforms[(a, b)] = into_a
            transforms[(b, a)] = into_b
    return transforms


class TestDistributedConfig:
    def test_defaults(self):
        config = DistributedConfig()
        assert config.tree == "bfs"

    def test_invalid_values(self):
        with pytest.raises(ValidationError):
            DistributedConfig(min_shared=1)
        with pytest.raises(ValidationError):
            DistributedConfig(tree="dfs")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("residual_trim_m", -1.0),
            ("residual_trim_m", 0.0),
            ("residual_trim_m", float("nan")),
            ("residual_trim_m", float("inf")),
            ("min_spacing_m", -2.0),
            ("min_spacing_m", 0.0),
            ("min_spacing_m", float("nan")),
            ("min_spacing_m", float("inf")),
        ],
    )
    def test_spacing_and_trim_are_positive_and_finite(self, field, value):
        """Rejected at construction: a negative trim used to drop every
        low-weight edge and then skip the refit, a NaN trim silently
        disabled trimming, and a bad spacing failed only later, in
        ``effective_local_lss``."""
        with pytest.raises(ValidationError, match=field):
            DistributedConfig(**{field: value})

    @pytest.mark.parametrize("field", ["residual_trim_m", "min_spacing_m"])
    def test_none_disables_spacing_and_trim(self, field):
        assert getattr(DistributedConfig(**{field: None}), field) is None

    def test_no_array_backend_field(self):
        # Every kernel has one NumPy body; the namespace knob is gone.
        with pytest.raises(TypeError):
            DistributedConfig(array_backend="numpy")

    def test_effective_local_lss_injects_spacing(self):
        config = DistributedConfig(min_spacing_m=9.0)
        assert config.effective_local_lss.min_spacing_m == 9.0
        assert config.local_lss.min_spacing_m is None

    def test_effective_local_lss_passthrough(self):
        config = DistributedConfig()
        assert config.effective_local_lss is config.local_lss


class TestBuildLocalMaps:
    def test_every_connected_node_gets_a_map(self, grid_scenario):
        positions, ranges = grid_scenario
        maps = build_local_maps(ranges, len(positions), rng=1)
        assert set(maps) == set(range(len(positions)))

    def test_owner_in_own_map(self, grid_scenario):
        positions, ranges = grid_scenario
        maps = build_local_maps(ranges, len(positions), rng=1)
        for owner, local_map in maps.items():
            assert owner in local_map.coordinates

    def test_maps_preserve_local_distances(self, grid_scenario):
        positions, ranges = grid_scenario
        maps = build_local_maps(ranges, len(positions), rng=1)
        # Check one map: distances in local coordinates match truth.
        local_map = maps[5]
        members = local_map.members
        est = local_map.coords_for(members)
        act = positions[members]
        est_d = np.hypot(*(est[0] - est[1]))
        act_d = np.hypot(*(act[0] - act[1]))
        assert est_d == pytest.approx(act_d, abs=1.0)

    def test_isolated_node_skipped(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 5.0)
        ms.add_distance(1, 2, 5.0)
        ms.add_distance(0, 2, 7.0)
        # Node 3 has no measurements at all.
        maps = build_local_maps(ms, 4, rng=0)
        assert 3 not in maps

    def test_empty_measurements_rejected(self):
        with pytest.raises(InsufficientDataError):
            build_local_maps(MeasurementSet(), 4)

    @pytest.mark.parametrize("solver", ["batched", "scalar"])
    def test_duplicate_pair_rejected(self, solver):
        # The pair lookup would keep the last entry: a 0-1 distance of 9.
        edges = EdgeList(
            pairs=np.array([[0, 1], [1, 2], [0, 2], [1, 0]]),
            distances=np.array([3.0, 4.0, 5.0, 9.0]),
            weights=np.ones(4),
        )
        with _solver(solver), pytest.raises(ValidationError, match="duplicate edge"):
            build_local_maps(edges, 3, rng=0)

    def test_self_loop_rejected(self):
        edges = EdgeList(
            pairs=np.array([[0, 1], [1, 2], [0, 2], [2, 2]]),
            distances=np.array([3.0, 4.0, 5.0, 0.0]),
            weights=np.ones(4),
        )
        with pytest.raises(ValidationError, match="self-loop"):
            build_local_maps(edges, 3, rng=0)


class TestBuildTransforms:
    def test_symmetric_keys(self, grid_scenario):
        positions, ranges = grid_scenario
        config = DistributedConfig()
        maps = build_local_maps(ranges, len(positions), config=config, rng=1)
        transforms = build_transforms(maps, config=config)
        for (a, b) in transforms:
            assert (b, a) in transforms

    def test_transforms_are_accurate_on_clean_data(self, grid_scenario):
        positions, ranges = grid_scenario
        config = DistributedConfig()
        maps = build_local_maps(ranges, len(positions), config=config, rng=1)
        transforms = build_transforms(maps, config=config)
        rmses = np.array([t.rmse for t in transforms.values()])
        assert np.median(rmses) < 0.5

    def test_transform_maps_between_frames(self, grid_scenario):
        positions, ranges = grid_scenario
        config = DistributedConfig()
        maps = build_local_maps(ranges, len(positions), config=config, rng=1)
        transforms = build_transforms(maps, config=config)
        (a, b), estimate = next(iter(transforms.items()))
        shared = sorted(set(maps[a].members) & set(maps[b].members))
        mapped = estimate.apply(maps[b].coords_for(shared))
        target = maps[a].coords_for(shared)
        assert np.abs(mapped - target).max() < 2.0

    def test_min_shared_respected(self, grid_scenario):
        positions, ranges = grid_scenario
        config = DistributedConfig(min_shared=10)
        maps = build_local_maps(ranges, len(positions), config=config, rng=1)
        transforms = build_transforms(maps, config=config)
        for (a, b) in transforms:
            shared = set(maps[a].members) & set(maps[b].members)
            assert len(shared) >= 10


class TestDistributedLocalize:
    @pytest.mark.parametrize("tree", ["bfs", "best"])
    def test_full_pipeline_accuracy(self, grid_scenario, tree):
        positions, ranges = grid_scenario
        config = DistributedConfig(min_spacing_m=10.0, tree=tree)
        result = distributed_localize(ranges, len(positions), root=5, config=config, rng=2)
        assert result.localized.all()
        report = evaluate_localization(
            result.positions, positions, localized_mask=result.localized, align=True
        )
        assert report.average_error < 1.0

    def test_root_frame_is_global(self, grid_scenario):
        positions, ranges = grid_scenario
        result = distributed_localize(ranges, len(positions), root=5, rng=2)
        # The root's position equals its own local-map coordinate.
        own = result.local_maps[5].coordinates[5]
        assert np.allclose(result.positions[5], own)

    def test_parents_form_tree(self, grid_scenario):
        positions, ranges = grid_scenario
        result = distributed_localize(ranges, len(positions), root=0, rng=2)
        assert result.parents[0] is None
        for node, parent in result.parents.items():
            if node == result.root:
                continue
            # Walking up must terminate at the root.
            seen = set()
            current = node
            while current != result.root:
                assert current not in seen
                seen.add(current)
                current = result.parents[current]

    def test_invalid_root(self, grid_scenario):
        positions, ranges = grid_scenario
        with pytest.raises(ValidationError):
            distributed_localize(ranges, len(positions), root=99)

    def test_root_without_map_rejected(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 5.0)
        ms.add_distance(1, 2, 5.0)
        ms.add_distance(0, 2, 7.0)
        with pytest.raises(InsufficientDataError):
            distributed_localize(ms, 4, root=3)

    def test_disconnected_component_unlocalized(self):
        # Two separate triangles; root in the first one.
        positions = np.array(
            [
                [0.0, 0.0], [10.0, 0.0], [5.0, 8.0],
                [100.0, 0.0], [110.0, 0.0], [105.0, 8.0],
            ]
        )
        ms = MeasurementSet()
        for i, j in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]:
            d = float(np.hypot(*(positions[i] - positions[j])))
            ms.add_distance(i, j, d, true_distance=d)
        result = distributed_localize(ms, 6, root=0, rng=0)
        assert result.localized[:3].all()
        assert not result.localized[3:].any()

    def test_precomputed_maps_reused(self, grid_scenario):
        positions, ranges = grid_scenario
        config = DistributedConfig()
        maps = build_local_maps(ranges, len(positions), config=config, rng=1)
        result = distributed_localize(
            ranges, len(positions), root=5, config=config, rng=2, local_maps=maps
        )
        assert result.local_maps is maps

    def test_sparse_data_degrades(self):
        # Remove most measurements: error should blow up vs dense (the
        # Figure 24 effect), while the pipeline still runs.
        positions = square_grid(4, 4, spacing_m=10.0)
        dense = gaussian_ranges(positions, max_range_m=16.0, sigma_m=0.3, rng=3)
        sparse = gaussian_ranges(positions, max_range_m=10.5, sigma_m=0.3, rng=3)
        config = DistributedConfig(min_spacing_m=10.0)
        res_dense = distributed_localize(dense, 16, root=5, config=config, rng=2)
        res_sparse = distributed_localize(sparse, 16, root=5, config=config, rng=2)
        rep_dense = evaluate_localization(
            res_dense.positions, positions, localized_mask=res_dense.localized, align=True
        )
        rep_sparse = evaluate_localization(
            res_sparse.positions, positions, localized_mask=res_sparse.localized, align=True
        )
        assert rep_dense.average_error < rep_sparse.average_error + 5.0


class TestBatchedScalarParity:
    """The acceptance contract: the batched path agrees with the scalar
    oracles (``_solve_local_maps_scalar`` substituted for the batched
    solve, per-pair closed-form transform fits).

    The batched path consumes perturbation randomness in a different
    order than the scalar loop (fits are phased before trim-refits), so
    agreement is pinned to solver tolerance, not bit-for-bit.
    """

    def test_local_maps_agree(self, grid_scenario):
        positions, ranges = grid_scenario
        config = DistributedConfig(min_spacing_m=10.0)
        with _scalar_local_maps():
            scalar_maps = build_local_maps(ranges, len(positions), config=config, rng=1)
        batched_maps = build_local_maps(ranges, len(positions), config=config, rng=1)
        assert set(scalar_maps) == set(batched_maps)
        for owner in scalar_maps:
            s, b = scalar_maps[owner], batched_maps[owner]
            assert s.members == b.members
            aligned = align_to_reference(b.coords_for(b.members), s.coords_for(s.members))
            assert np.abs(aligned - s.coords_for(s.members)).max() < 0.2

    def test_transforms_agree(self, grid_scenario):
        positions, ranges = grid_scenario
        with _scalar_local_maps():
            maps = build_local_maps(ranges, len(positions), rng=1)
        scalar_t = _closed_form_transforms(maps)
        batched_t = build_transforms(maps)
        assert set(scalar_t) == set(batched_t)
        for key in scalar_t:
            np.testing.assert_allclose(
                batched_t[key].matrix, scalar_t[key].matrix, atol=1e-9
            )
            assert batched_t[key].reflected == scalar_t[key].reflected
            assert batched_t[key].n_correspondences == scalar_t[key].n_correspondences
            assert batched_t[key].error == pytest.approx(scalar_t[key].error, abs=1e-9)

    def test_full_pipeline_agrees(self, grid_scenario):
        positions, ranges = grid_scenario
        reports = {}
        cfg = DistributedConfig(min_spacing_m=10.0)
        for solver in ("scalar", "batched"):
            with _solver(solver):
                result = distributed_localize(
                    ranges, len(positions), root=5, config=cfg, rng=2
                )
            assert result.localized.all()
            reports[solver] = evaluate_localization(
                result.positions, positions, localized_mask=result.localized, align=True
            )
        assert reports["batched"].average_error == pytest.approx(
            reports["scalar"].average_error, abs=0.25
        )


class TestPaddingEdgeCases:
    """Variable-size neighborhoods through the padded batched kernels."""

    @staticmethod
    def _measurements(positions, pairs):
        ms = MeasurementSet()
        for i, j in pairs:
            d = float(np.hypot(*(positions[i] - positions[j])))
            ms.add_distance(i, j, d, true_distance=d)
        return ms

    def test_minimal_neighborhood_padded_alongside_larger(self):
        # Node 4 hangs off one corner of a well-connected square: its
        # neighborhood (a 3-node triangle) is the smallest solvable
        # local map, stacked next to much larger ones.
        positions = np.array(
            [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0], [20.0, 5.0]]
        )
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4)]
        ms = self._measurements(positions, pairs)
        for solver in ("batched", "scalar"):
            with _solver(solver):
                maps = build_local_maps(ms, 5, rng=0)
            assert set(maps) == {0, 1, 2, 3, 4}
            assert maps[4].members == [1, 3, 4]
            est = maps[4].coords_for([1, 3])
            d = float(np.hypot(*(est[0] - est[1])))
            assert d == pytest.approx(np.hypot(*(positions[1] - positions[3])), abs=0.5)

    def test_node_with_single_neighbor_has_no_map(self):
        # Node 3 has one neighbor: no local frame of its own, but it
        # still appears in the triangle owners' maps.
        positions = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 8.0], [5.0, -9.0]])
        ms = self._measurements(positions, [(0, 1), (0, 2), (1, 2), (0, 3)])
        maps = build_local_maps(ms, 4, rng=0)
        assert 3 not in maps
        assert 3 in maps[0].coordinates

    def test_fully_disconnected_node(self):
        positions = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 8.0], [40.0, 40.0]])
        ms = self._measurements(positions, [(0, 1), (0, 2), (1, 2)])
        result = distributed_localize(ms, 4, root=0, rng=0)
        assert result.localized[:3].all()
        assert not result.localized[3]
        assert np.isnan(result.positions[3]).all()

    def test_single_map_network(self):
        # A lone triangle: every node owns the identical 3-member map,
        # so the batch is three equal-size problems with no padding.
        positions = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]])
        ms = self._measurements(positions, [(0, 1), (0, 2), (1, 2)])
        result = distributed_localize(ms, 3, root=0, rng=0)
        assert result.localized.all()
        report = evaluate_localization(result.positions, positions, align=True)
        assert report.average_error < 0.5


class TestSeedCounters:
    def test_seed_outcomes_sum_to_the_phase_one_stack(self, monkeypatch):
        from repro import telemetry
        from repro.engine import localmaps
        from repro.scenarios import get_scenario, scenario_trial

        stacks = []
        solve = localmaps.solve_local_lss_stack

        def spy(problems, **kwargs):
            stacks.append(len(problems))
            return solve(problems, **kwargs)

        monkeypatch.setattr(localmaps, "solve_local_lss_stack", spy)
        spec = get_scenario("town-distributed-lss")
        with telemetry.recording() as rec:
            scenario_trial(np.random.default_rng(0), spec=spec)
        counters = rec.counters
        seeds = {
            outcome: counters.get(f"core.distributed.seeds.{outcome}", 0)
            for outcome in ("corroborated", "all_edges", "random")
        }
        # One build_local_maps call: its first stack is phase 1, any
        # second one the residual-trim refits.
        assert 1 <= len(stacks) <= 2
        assert counters["engine.localmaps.problems"] == sum(stacks)
        assert sum(seeds.values()) == stacks[0]
        assert seeds["corroborated"] > 0
