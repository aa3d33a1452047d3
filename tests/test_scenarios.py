"""Tests for the declarative scenario layer.

Covers spec validation, canonical hashing (stability, id-exclusion,
physics-sensitivity), sweep expansion, the registry, the picklable
scenario trial, and the store-backed runner — including the acceptance
contract that a repeated cached campaign does *zero* simulation work.
"""

import dataclasses
import pickle

import numpy as np
import pytest

import repro.scenarios.runner as runner_module
from repro import telemetry
from repro.engine import ConfidenceStop
from repro.errors import ValidationError
from repro.scenarios import (
    AnchorSpec,
    DeploymentSpec,
    RangingSpec,
    ScenarioSpec,
    SolverSpec,
    all_scenarios,
    draw_deployment,
    expand_grid,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_trial,
)
from repro.store import ResultStore


def _base_spec(**overrides) -> ScenarioSpec:
    spec = ScenarioSpec(
        scenario_id="test-base",
        deployment=DeploymentSpec(kind="uniform", n_nodes=14, width_m=40.0, height_m=40.0),
        anchors=AnchorSpec(strategy="random", fraction=None, count=6),
        ranging=RangingSpec(model="gaussian", max_range_m=20.0, sigma_m=0.33),
        solver=SolverSpec(algorithm="multilateration"),
        n_trials=3,
    )
    return spec.with_overrides(**overrides) if overrides else spec


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            DeploymentSpec(kind="mars")

    def test_grid_requires_square_count(self):
        with pytest.raises(ValidationError):
            DeploymentSpec(kind="grid", n_nodes=15)
        DeploymentSpec(kind="grid", n_nodes=16)

    @pytest.mark.parametrize("field", ["width_m", "height_m"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -5.0])
    def test_uniform_field_must_be_finite_positive(self, field, value):
        with pytest.raises(ValidationError, match=field):
            DeploymentSpec(kind="uniform", n_nodes=10, **{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_uniform_separation_must_be_finite_non_negative(self, value):
        with pytest.raises(ValidationError, match="min_separation_m"):
            DeploymentSpec(kind="uniform", n_nodes=10, min_separation_m=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_town_separation_must_be_finite_non_negative(self, value):
        # Refused at construction, not at the first trial's town_layout.
        with pytest.raises(ValidationError, match="min_separation_m"):
            DeploymentSpec(kind="town", n_nodes=59, min_separation_m=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -10.0])
    def test_grid_spacing_must_be_finite_positive(self, value):
        with pytest.raises(ValidationError, match="spacing_m"):
            DeploymentSpec(kind="grid", n_nodes=16, spacing_m=value)

    def test_uniform_packing_bound(self):
        # A 10 x 10 m field at 5 m separation: Groemer's bound is
        # 2*100/(sqrt(3)*25) + 20/5 + 1 = 9.62, and the 3 x 3 grid with
        # 5 m spacing places nine.
        DeploymentSpec(kind="uniform", n_nodes=9, width_m=10.0, height_m=10.0, min_separation_m=5.0)
        with pytest.raises(ValidationError, match="at most 9 fit"):
            DeploymentSpec(
                kind="uniform", n_nodes=10, width_m=10.0, height_m=10.0, min_separation_m=5.0
            )
        # No separation, no bound.
        DeploymentSpec(kind="uniform", n_nodes=10_000, width_m=1.0, height_m=1.0, min_separation_m=0.0)

    def test_uniform_checks_only_uniform_fields(self):
        DeploymentSpec(kind="grid", n_nodes=16, width_m=-1.0, min_separation_m=float("nan"))
        DeploymentSpec(kind="town", n_nodes=12, width_m=0.0, spacing_m=-1.0)

    def test_anchor_spec_exclusive_fields(self):
        with pytest.raises(ValidationError):
            AnchorSpec(strategy="random", fraction=0.2, count=5)
        with pytest.raises(ValidationError):
            AnchorSpec(strategy="random", fraction=None, count=None)
        with pytest.raises(ValidationError):
            AnchorSpec(strategy="none", fraction=0.2)

    def test_anchor_count_resolution(self):
        assert AnchorSpec(strategy="random", fraction=0.25).n_anchors(36) == 9
        assert AnchorSpec(strategy="random", count=50).n_anchors(36) == 36
        assert AnchorSpec(strategy="none").n_anchors(36) == 0

    def test_anchor_count_only_constructor(self):
        spec = AnchorSpec(count=10)
        assert spec.fraction is None and spec.n_anchors(36) == 10

    def test_backend_rejected_through_overrides(self):
        # Each algorithm has one solver: the field is gone, not validated.
        with pytest.raises(ValidationError, match="unknown spec field 'backend'"):
            get_scenario("town-lss").with_overrides(**{"solver.backend": "scalar"})

    def test_lss_must_be_anchor_free(self):
        with pytest.raises(ValidationError):
            _base_spec(**{"solver.algorithm": "lss"})
        ScenarioSpec(
            scenario_id="ok",
            anchors=AnchorSpec(strategy="none", fraction=None, count=None),
            solver=SolverSpec(algorithm="lss"),
        )

    # The five specs below used to construct, then abort every lss /
    # distributed-lss campaign with ValidationError at its first trial.
    @pytest.mark.parametrize("spacing", [0.0, -1.0])
    def test_non_positive_min_spacing_rejected(self, spacing):
        with pytest.raises(ValidationError, match="min_spacing_m"):
            SolverSpec(algorithm="lss", min_spacing_m=spacing)

    def test_nan_min_spacing_rejected(self):
        with pytest.raises(ValidationError, match="min_spacing_m"):
            SolverSpec(algorithm="distributed-lss", min_spacing_m=float("nan"))

    def test_negative_constraint_weight_rejected(self):
        with pytest.raises(ValidationError, match="constraint_weight"):
            SolverSpec(algorithm="lss", constraint_weight=-0.5)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValidationError, match="sigma_m"):
            RangingSpec(sigma_m=sigma)
        with pytest.raises(ValidationError, match="sigma_m"):
            _base_spec(**{"ranging.sigma_m": sigma})

    @pytest.mark.parametrize("max_range", [float("nan"), float("inf")])
    def test_non_finite_max_range_rejected(self, max_range):
        with pytest.raises(ValidationError, match="max_range_m"):
            RangingSpec(max_range_m=max_range)
        with pytest.raises(ValidationError, match="max_range_m"):
            _base_spec(**{"ranging.max_range_m": max_range})

    def test_lss_knobs_at_their_bounds_accepted(self):
        SolverSpec(algorithm="lss", min_spacing_m=None, constraint_weight=0.0)
        SolverSpec(algorithm="lss", min_spacing_m=1e-6)
        RangingSpec(sigma_m=0.0)

    def test_anchored_algorithms_need_anchors(self):
        with pytest.raises(ValidationError):
            ScenarioSpec(
                scenario_id="bad",
                anchors=AnchorSpec(strategy="none", fraction=None, count=None),
                solver=SolverSpec(algorithm="multilateration"),
            )


class TestSpecHashing:
    def test_hash_is_stable_and_hex(self):
        a, b = _base_spec(), _base_spec()
        assert a.spec_hash() == b.spec_hash()
        assert len(a.spec_hash()) == 64

    def test_hash_ignores_cosmetic_id(self):
        spec = _base_spec()
        renamed = dataclasses.replace(spec, scenario_id="renamed")
        assert renamed.spec_hash() == spec.spec_hash()

    @pytest.mark.parametrize(
        "path,value",
        [
            ("deployment.n_nodes", 15),
            ("deployment.width_m", 41.0),
            ("anchors.count", 7),
            ("ranging.sigma_m", 0.34),
            ("ranging.max_range_m", 21.0),
            ("solver.restarts", 5),
            ("n_trials", 4),
            ("target_metric", "median_error_m"),
        ],
    )
    def test_every_physical_field_changes_hash(self, path, value):
        assert _base_spec(**{path: value}).spec_hash() != _base_spec().spec_hash()

    def test_canonical_json_sorted_and_compact(self):
        text = _base_spec().canonical_json()
        assert " " not in text
        assert text.index('"anchors"') < text.index('"deployment"')
        assert "scenario_id" not in text


class TestOverridesAndGrid:
    def test_with_overrides_dotted_paths(self):
        spec = _base_spec(**{"ranging.sigma_m": 0.1, "n_trials": 9})
        assert spec.ranging.sigma_m == 0.1
        assert spec.n_trials == 9
        # original untouched (frozen)
        assert _base_spec().ranging.sigma_m == 0.33

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            _base_spec(**{"ranging.flux_capacitor": 1.21})
        with pytest.raises(ValidationError):
            _base_spec(nonexistent=1)

    def test_grid_cross_product(self):
        specs = _base_spec().grid(
            {"deployment.n_nodes": [9, 16], "ranging.sigma_m": [0.1, 0.2, 0.3]}
        )
        assert len(specs) == 6
        assert len({s.scenario_id for s in specs}) == 6
        assert len({s.spec_hash() for s in specs}) == 6
        assert all("n_nodes=" in s.scenario_id for s in specs)
        # axis order: first axis varies slowest
        assert specs[0].deployment.n_nodes == 9
        assert specs[-1].deployment.n_nodes == 16

    def test_grid_empty_axes_returns_base(self):
        spec = _base_spec()
        assert expand_grid(spec, {}) == (spec,)

    def test_grid_rejects_empty_axis(self):
        with pytest.raises(ValidationError):
            _base_spec().grid({"n_trials": []})


class TestArrayBackendFieldRemoved:
    """``solver.array_backend`` is gone with no shim: naming it fails the
    same way as any other unknown field, and the hash registry holds only
    the cosmetic id."""

    def test_override_names_unknown_spec_field(self):
        with pytest.raises(ValidationError, match="unknown spec field 'array_backend'"):
            _base_spec(**{"solver.array_backend": "numpy"})

    def test_solver_spec_rejects_the_keyword(self):
        with pytest.raises(TypeError):
            SolverSpec(algorithm="multilateration", array_backend="numpy")

    def test_only_the_scenario_id_is_hash_excluded(self):
        from repro.scenarios.spec import HASH_EXCLUDED_FIELDS

        assert HASH_EXCLUDED_FIELDS == ("scenario_id",)
        assert "array_backend" not in _base_spec().canonical()["solver"]


class TestRegistry:
    def test_builtins_present_and_valid(self):
        scenarios = all_scenarios()
        assert len(scenarios) >= 8
        for scenario_id, spec in scenarios.items():
            assert spec.scenario_id == scenario_id
            assert len(spec.spec_hash()) == 64

    def test_get_unknown_lists_known(self):
        with pytest.raises(KeyError, match="town-multilateration"):
            get_scenario("fig99")

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("town-multilateration")
        with pytest.raises(ValidationError):
            register_scenario(spec)


class TestScenarioTrial:
    def test_deterministic_given_seed(self):
        spec = _base_spec()
        a = scenario_trial(np.random.default_rng(4), spec=spec)
        b = scenario_trial(np.random.default_rng(4), spec=spec)
        assert a == b

    def test_metrics_contract(self):
        metrics = scenario_trial(np.random.default_rng(4), spec=_base_spec())
        assert {"fraction_localized", "mean_error_m", "median_error_m"} <= set(metrics)
        assert 0.0 <= metrics["fraction_localized"] <= 1.0

    def test_spec_and_trial_are_picklable(self):
        spec = _base_spec()
        assert pickle.loads(pickle.dumps(spec)) == spec
        fn = pickle.loads(pickle.dumps(scenario_trial))
        assert fn is scenario_trial

    def test_degenerate_all_anchor_draw_yields_nan(self):
        spec = _base_spec(**{"anchors.count": 14})
        metrics = scenario_trial(np.random.default_rng(4), spec=spec)
        assert np.isnan(metrics["fraction_localized"])

    def test_dv_hop_too_few_anchors_yields_nan_campaign(self):
        # Two anchors: DV-hop cannot calibrate.  Every trial reports
        # nan metrics instead of aborting the whole campaign.
        spec = ScenarioSpec(
            "x",
            deployment=DeploymentSpec(kind="uniform", n_nodes=10),
            anchors=AnchorSpec(strategy="random", fraction=0.2),
            solver=SolverSpec(algorithm="dv-hop"),
            n_trials=4,
        )
        result = run_scenario(spec)
        assert result.n_trials == 4
        assert result.aggregate()["mean_error_m"]["n"] == 0.0

    def test_dv_hop_unreachable_anchors_yields_nan(self):
        # Three anchors, but no anchor has a multi-hop path to another.
        spec = ScenarioSpec(
            "dv-hop-unreachable",
            deployment=DeploymentSpec(kind="town", n_nodes=8),
            anchors=AnchorSpec(strategy="random", fraction=0.34),
            solver=SolverSpec(algorithm="dv-hop"),
            n_trials=1,
        )
        metrics = scenario_trial(np.random.default_rng(0), spec=spec)
        assert np.isnan(metrics["mean_error_m"])

    @pytest.mark.parametrize(
        "kind,n_nodes",
        [("uniform", 5), ("uniform", 12), ("town", 9), ("paper-grid", 7)],
    )
    def test_dv_hop_small_layout_campaign_completes(self, kind, n_nodes):
        # Three anchors on a sparse layout: some draws leave every anchor
        # out of reach of the others, which used to abort the campaign.
        spec = ScenarioSpec(
            f"dv-hop-{kind}-{n_nodes}",
            deployment=DeploymentSpec(kind=kind, n_nodes=n_nodes),
            anchors=AnchorSpec(strategy="random", count=3),
            solver=SolverSpec(algorithm="dv-hop"),
            n_trials=4,
        )
        result = run_scenario(spec)
        assert result.n_trials == 4
        errors = [r.metrics["mean_error_m"] for r in result.records]
        assert any(np.isnan(e) for e in errors)
        assert result.aggregate()["mean_error_m"]["n"] == sum(
            not np.isnan(e) for e in errors
        )

    def test_dv_hop_nan_campaign_is_stored_and_recalled(self, tmp_path):
        store = ResultStore(tmp_path, code_version="v1")
        spec = ScenarioSpec(
            "dv-hop-town-9",
            deployment=DeploymentSpec(kind="town", n_nodes=9),
            anchors=AnchorSpec(strategy="random", count=3),
            solver=SolverSpec(algorithm="dv-hop"),
            n_trials=4,
        )
        cold = run_scenario(spec, master_seed=0, store=store)
        warm = run_scenario(spec, master_seed=0, store=store)
        assert store.stats.hits == 1 and store.stats.misses == 1
        np.testing.assert_equal(
            [r.metrics for r in warm.records], [r.metrics for r in cold.records]
        )

    def test_lss_trial_path(self):
        spec = ScenarioSpec(
            scenario_id="lss-small",
            deployment=DeploymentSpec(
                kind="uniform", n_nodes=10, width_m=35.0, height_m=35.0,
                min_separation_m=5.0,
            ),
            anchors=AnchorSpec(strategy="none", fraction=None, count=None),
            ranging=RangingSpec(model="gaussian", max_range_m=22.0, sigma_m=0.2),
            solver=SolverSpec(
                algorithm="lss", min_spacing_m=5.0, restarts=2, max_epochs=300
            ),
            n_trials=1,
        )
        metrics = scenario_trial(np.random.default_rng(4), spec=spec)
        assert metrics["fraction_localized"] == 1.0
        assert metrics["epochs_run"] > 0

    def test_distributed_lss_trial_path(self):
        spec = ScenarioSpec(
            scenario_id="dlss-small",
            deployment=DeploymentSpec(kind="grid", n_nodes=16, spacing_m=10.0),
            anchors=AnchorSpec(strategy="none", fraction=None, count=None),
            ranging=RangingSpec(model="gaussian", max_range_m=16.0, sigma_m=0.2),
            solver=SolverSpec(
                algorithm="distributed-lss", min_spacing_m=10.0, restarts=2,
                max_epochs=300,
            ),
            n_trials=1,
        )
        metrics = scenario_trial(np.random.default_rng(4), spec=spec)
        assert metrics["fraction_localized"] == 1.0
        assert metrics["n_local_maps"] == 16.0
        assert metrics["mean_error_m"] < 2.0

    def test_distributed_lss_degenerate_draw_yields_nan(self):
        # Too sparse to build any local map at the root: nan metrics,
        # no crash (the campaign aggregation contract).
        spec = ScenarioSpec(
            scenario_id="dlss-degenerate",
            deployment=DeploymentSpec(
                kind="uniform", n_nodes=6, width_m=200.0, height_m=200.0,
                min_separation_m=40.0,
            ),
            anchors=AnchorSpec(strategy="none", fraction=None, count=None),
            ranging=RangingSpec(model="gaussian", max_range_m=10.0, sigma_m=0.2),
            solver=SolverSpec(algorithm="distributed-lss"),
            n_trials=1,
        )
        metrics = scenario_trial(np.random.default_rng(0), spec=spec)
        assert np.isnan(metrics["mean_error_m"])

    def test_deployment_kinds_produce_expected_counts(self):
        rng = np.random.default_rng(0)
        for kind, n in [("uniform", 9), ("grid", 9), ("paper-grid", 47), ("town", 12)]:
            spec = DeploymentSpec(kind=kind, n_nodes=n, width_m=50.0, height_m=50.0,
                                  min_separation_m=3.0)
            assert draw_deployment(spec, rng).shape == (n, 2)


class TestInfeasibleDeployment:
    """A draw the placement sampler gives up on is a counted NaN trial,
    not an aborted campaign."""

    @pytest.mark.parametrize(
        "kind, n_nodes, master_seed",
        # Seed 1 for `uniform`: 160 nodes is near the sampler's jamming
        # limit, and at seed 0 one of the four draws still places them.
        [("parking-lot", 45, 0), ("uniform", 160, 1)],
    )
    def test_campaign_finishes_with_counted_nan_trials(self, kind, n_nodes, master_seed):
        spec = get_scenario("uniform-multilateration").with_overrides(
            **{"deployment.kind": kind, "deployment.n_nodes": n_nodes}
        )
        with telemetry.recording() as recorder:
            result = run_scenario(spec, master_seed=master_seed, n_trials=4, store=None)
        assert result.n_trials == 4
        assert result.n_nan_trials == 4
        assert all(np.isnan(record.metrics["mean_error_m"]) for record in result.records)
        assert recorder.counters["trial.failed.deployment-infeasible"] == 4

    def test_feasible_campaign_counts_no_failure(self):
        with telemetry.recording() as recorder:
            run_scenario(get_scenario("uniform-multilateration"), n_trials=2, store=None)
        assert "trial.failed.deployment-infeasible" not in recorder.counters


class TestRunScenario:
    def test_cache_hit_is_bit_identical_to_cold_run(self, tmp_path):
        store = ResultStore(tmp_path, code_version="v1")
        spec = _base_spec()
        cold = run_scenario(spec, master_seed=3, store=store)
        warm = run_scenario(spec, master_seed=3, store=store)
        assert store.stats.hits == 1 and store.stats.misses == 1
        assert warm.records == cold.records
        assert warm.aggregate() == cold.aggregate()

    def test_cache_hit_does_zero_simulation_work(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path, code_version="v1")
        spec = _base_spec()
        run_scenario(spec, master_seed=3, store=store)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("simulation ran despite cache hit")

        monkeypatch.setattr(runner_module, "run_monte_carlo", boom)
        monkeypatch.setattr(runner_module, "run_adaptive", boom)
        warm = run_scenario(spec, master_seed=3, store=store)
        assert warm.n_trials == spec.n_trials

    def test_spec_change_invalidates(self, tmp_path):
        store = ResultStore(tmp_path, code_version="v1")
        run_scenario(_base_spec(), master_seed=3, store=store)
        run_scenario(
            _base_spec(**{"ranging.sigma_m": 0.5}), master_seed=3, store=store
        )
        assert store.stats.hits == 0 and store.stats.misses == 2

    def test_seed_change_invalidates(self, tmp_path):
        store = ResultStore(tmp_path, code_version="v1")
        run_scenario(_base_spec(), master_seed=3, store=store)
        run_scenario(_base_spec(), master_seed=4, store=store)
        assert store.stats.hits == 0 and store.stats.misses == 2

    def test_code_version_bump_invalidates(self, tmp_path):
        spec = _base_spec()
        old = ResultStore(tmp_path, code_version="v1")
        cold = run_scenario(spec, master_seed=3, store=old)
        bumped = ResultStore(tmp_path, code_version="v2")
        recomputed = run_scenario(spec, master_seed=3, store=bumped)
        assert bumped.stats.hits == 0 and bumped.stats.misses == 1
        # same physics, so same results — but via a fresh simulation
        assert recomputed.records == cold.records

    def test_no_cache_recomputes_and_republished(self, tmp_path):
        store = ResultStore(tmp_path, code_version="v1")
        spec = _base_spec()
        run_scenario(spec, master_seed=3, store=store)
        forced = run_scenario(spec, master_seed=3, store=store, use_cache=False)
        assert store.stats.hits == 0
        assert store.stats.puts == 2
        assert forced.n_trials == spec.n_trials

    def test_adaptive_and_fixed_are_cached_separately(self, tmp_path):
        store = ResultStore(tmp_path, code_version="v1")
        spec = _base_spec(n_trials=12)
        stopping = ConfidenceStop(
            metric="mean_error_m", tolerance=1e9, min_trials=2
        )
        fixed = run_scenario(spec, master_seed=3, store=store)
        adaptive = run_scenario(spec, master_seed=3, store=store, stopping=stopping)
        assert store.stats.misses == 2  # distinct keys
        assert adaptive.converged
        # the trivially-satisfied rule stops at the first chunk boundary,
        # and the committed records are a prefix of the fixed run's
        assert adaptive.records == fixed.records[: adaptive.n_trials]
        warm = run_scenario(spec, master_seed=3, store=store, stopping=stopping)
        assert warm == adaptive

    def test_run_by_id(self, tmp_path):
        store = ResultStore(tmp_path, code_version="v1")
        result = run_scenario(
            get_scenario("uniform-multilateration"), master_seed=1, n_trials=2, store=store
        )
        assert result.n_trials == 2


class TestExperimentIntegration:
    def test_repeated_ext_campaign_does_zero_simulation_work(
        self, tmp_path, monkeypatch
    ):
        """Acceptance criterion: with the store enabled, a repeated
        ext-campaign run is served entirely from the cache."""
        from repro.experiments.extension_experiments import ext_campaign_statistics

        store = ResultStore(tmp_path, code_version="v1")
        first = ext_campaign_statistics(2005, store=store)
        assert first.passed

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("simulation ran despite warm store")

        monkeypatch.setattr(runner_module, "run_monte_carlo", boom)
        monkeypatch.setattr(runner_module, "run_adaptive", boom)
        second = ext_campaign_statistics(2005, store=store)
        assert second.passed
        assert second.measured["mean_error_m"] == first.measured["mean_error_m"]
        assert store.stats.hits >= 2

    def test_grass_campaign_memoized_in_store(self, tmp_path, monkeypatch):
        """The figure drivers' shared field campaign is served from the
        content-addressed store on re-runs, bit-identically."""
        import repro.experiments.common as common

        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        common._campaign_cached.cache_clear()
        raw_cold, edges_cold = common.grass_campaign_edges(n_nodes=12, seed=77)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("campaign re-simulated despite warm store")

        monkeypatch.setattr(common, "_simulate_grass_campaign", boom)
        common._campaign_cached.cache_clear()
        raw_warm, edges_warm = common.grass_campaign_edges(n_nodes=12, seed=77)
        assert len(raw_warm) == len(raw_cold)
        assert np.array_equal(edges_warm.pairs, edges_cold.pairs)
        assert np.array_equal(edges_warm.distances, edges_cold.distances)
        assert np.array_equal(edges_warm.weights, edges_cold.weights)
        common._campaign_cached.cache_clear()

    def test_grass_campaign_store_can_be_disabled(self, tmp_path, monkeypatch):
        import repro.experiments.common as common

        monkeypatch.setenv("REPRO_STORE_DIR", "off")
        common._campaign_cached.cache_clear()
        raw, edges = common.grass_campaign_edges(n_nodes=12, seed=77)
        assert len(edges) > 0
        assert not any(tmp_path.iterdir())
        common._campaign_cached.cache_clear()
