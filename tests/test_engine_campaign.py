"""Tests for the seeded Monte-Carlo campaign runner.

The load-bearing guarantee is scheduling-independence: a campaign's
per-trial metrics and aggregate statistics are a pure function of
``(master_seed, n_trials, trial_kwargs)`` — never of the worker count
or the order workers finish in.
"""

import numpy as np
import pytest

from repro.engine import (
    CampaignResult,
    ConfidenceStop,
    ShardSpec,
    TrialRecord,
    merge_shards,
    run_adaptive,
    run_campaign_shard,
    run_monte_carlo,
)
from repro.errors import ValidationError
from repro.scenarios import (
    AnchorSpec,
    DeploymentSpec,
    RangingSpec,
    ScenarioSpec,
    SolverSpec,
    get_scenario,
    scenario_trial,
)
from repro.store.serialization import records_equal

#: Small, fast multilateration scenario shared by the campaign tests.
SMALL_SPEC = ScenarioSpec(
    scenario_id="small-multilateration",
    deployment=DeploymentSpec(kind="uniform", n_nodes=16, width_m=40.0, height_m=40.0),
    anchors=AnchorSpec(strategy="random", count=6),
)


def _seed_echo_trial(rng):
    """Minimal deterministic trial: echoes its stream's first draws."""
    return {"draw": float(rng.random()), "gauss": float(rng.normal())}


class TestRunMonteCarlo:
    def test_records_ordered_and_complete(self):
        result = run_monte_carlo(_seed_echo_trial, 8, master_seed=42)
        assert result.n_trials == 8
        assert [r.index for r in result.records] == list(range(8))
        assert result.metric_names == ("draw", "gauss")
        assert np.isfinite(result.metric("draw")).all()

    def test_same_master_seed_reproduces(self):
        a = run_monte_carlo(_seed_echo_trial, 6, master_seed=1)
        b = run_monte_carlo(_seed_echo_trial, 6, master_seed=1)
        assert np.array_equal(a.metric("draw"), b.metric("draw"))
        assert a.aggregate() == b.aggregate()

    def test_different_master_seeds_differ(self):
        a = run_monte_carlo(_seed_echo_trial, 6, master_seed=1)
        b = run_monte_carlo(_seed_echo_trial, 6, master_seed=2)
        assert not np.array_equal(a.metric("draw"), b.metric("draw"))

    def test_trials_are_independent_streams(self):
        result = run_monte_carlo(_seed_echo_trial, 16, master_seed=0)
        draws = result.metric("draw")
        assert np.unique(draws).size == draws.size

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_monte_carlo(_seed_echo_trial, 0)
        with pytest.raises(ValidationError):
            run_monte_carlo(_seed_echo_trial, 2, n_workers=0)

    def test_non_mapping_return_rejected(self):
        def bad_trial(rng):
            return 1.0

        with pytest.raises(ValidationError):
            run_monte_carlo(bad_trial, 1)


class TestWorkerDeterminism:
    @pytest.mark.slow
    def test_parallel_matches_serial(self):
        """n_workers=1 and n_workers=4 yield identical statistics."""
        serial = run_monte_carlo(
            scenario_trial,
            8,
            master_seed=2005,
            n_workers=1,
            trial_kwargs={"spec": SMALL_SPEC},
        )
        parallel = run_monte_carlo(
            scenario_trial,
            8,
            master_seed=2005,
            n_workers=4,
            trial_kwargs={"spec": SMALL_SPEC},
        )
        assert [r.index for r in parallel.records] == [r.index for r in serial.records]
        for name in serial.metric_names:
            assert np.array_equal(
                serial.metric(name), parallel.metric(name), equal_nan=True
            ), name
        assert serial.aggregate() == parallel.aggregate()

    @pytest.mark.slow
    def test_spawn_start_method_matches_inline(self):
        """Spawned workers import everything afresh and receive each
        trial's payload pickled; every driver must still reproduce the
        inline records."""
        common = dict(
            master_seed=7,
            trial_kwargs={"spec": get_scenario("uniform-multilateration")},
        )
        pooled = dict(common, n_workers=2, mp_context="spawn")
        fixed = run_monte_carlo(scenario_trial, 6, **common)
        assert records_equal(run_monte_carlo(scenario_trial, 6, **pooled), fixed)

        stop = ConfidenceStop(metric="mean_error_m", tolerance=1e-9, min_trials=2)
        adaptive = dict(stopping=stop, chunk_size=2)
        inline = run_adaptive(scenario_trial, 6, **adaptive, **common)
        spawned = run_adaptive(scenario_trial, 6, **adaptive, **pooled)
        assert records_equal(spawned, inline)
        assert spawned.half_width_trace == inline.half_width_trace

        shards = [
            run_campaign_shard(
                scenario_trial, 6, shard=ShardSpec(k, 2), **pooled
            )
            for k in range(2)
        ]
        assert records_equal(merge_shards(shards), fixed)


class TestAggregation:
    def test_aggregate_statistics(self):
        records = tuple(
            TrialRecord(index=i, metrics={"x": float(v)})
            for i, v in enumerate([1.0, 2.0, 3.0, 4.0])
        )
        result = CampaignResult(master_seed=0, records=records)
        stats = result.aggregate()["x"]
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["median"] == pytest.approx(2.5)
        assert stats["min"] == 1.0 and stats["max"] == 4.0
        assert stats["n"] == 4.0

    def test_nan_metrics_excluded_from_aggregates(self):
        records = (
            TrialRecord(index=0, metrics={"x": float("nan")}),
            TrialRecord(index=1, metrics={"x": 3.0}),
        )
        result = CampaignResult(master_seed=0, records=records)
        stats = result.aggregate()["x"]
        assert stats["n"] == 1.0
        assert stats["mean"] == pytest.approx(3.0)

    def test_all_nan_metric(self):
        records = (TrialRecord(index=0, metrics={"x": float("nan")}),)
        result = CampaignResult(master_seed=0, records=records)
        stats = result.aggregate()["x"]
        assert stats["n"] == 0.0 and np.isnan(stats["mean"])

    def test_missing_metric_becomes_nan(self):
        records = (
            TrialRecord(index=0, metrics={"x": 1.0, "y": 2.0}),
            TrialRecord(index=1, metrics={"x": 5.0}),
        )
        result = CampaignResult(master_seed=0, records=records)
        y = result.metric("y")
        assert y[0] == 2.0 and np.isnan(y[1])

    def test_summary_renders(self):
        result = run_monte_carlo(_seed_echo_trial, 3, master_seed=5)
        text = result.summary()
        assert "3 trials" in text and "draw" in text


class TestScenarioTrials:
    """The campaign contract over :func:`repro.scenarios.scenario_trial`."""

    def test_multilateration_trial_metrics(self):
        metrics = scenario_trial(np.random.default_rng(8), spec=SMALL_SPEC)
        assert set(metrics) == {
            "fraction_localized",
            "mean_error_m",
            "median_error_m",
            "average_anchors_per_node",
        }
        assert 0.0 <= metrics["fraction_localized"] <= 1.0

    def test_lss_trial_metrics(self):
        spec = ScenarioSpec(
            scenario_id="small-lss",
            deployment=DeploymentSpec(
                kind="uniform", n_nodes=12, width_m=50.0, height_m=50.0,
                min_separation_m=6.0,
            ),
            anchors=AnchorSpec(strategy="none"),
            solver=SolverSpec(
                algorithm="lss", min_spacing_m=6.0, restarts=2, max_epochs=300
            ),
        )
        metrics = scenario_trial(np.random.default_rng(8), spec=spec)
        assert metrics["mean_error_m"] >= 0.0
        assert metrics["epochs_run"] > 0

    def test_dv_hop_trial_metrics(self):
        spec = ScenarioSpec(
            scenario_id="small-dv-hop",
            deployment=DeploymentSpec(kind="uniform", n_nodes=20),
            anchors=AnchorSpec(strategy="random", count=6),
            ranging=RangingSpec(max_range_m=14.0),
            solver=SolverSpec(algorithm="dv-hop"),
        )
        metrics = scenario_trial(np.random.default_rng(8), spec=spec)
        assert 0.0 <= metrics["fraction_localized"] <= 1.0

    def test_all_anchor_trial_yields_nan_instead_of_crashing(self):
        # Every node an anchor is a degenerate draw: no non-anchors to
        # localize.  The trial must report nan metrics (excluded from
        # aggregates), not divide by zero and kill the campaign.
        spec = SMALL_SPEC.with_overrides(
            **{"deployment.n_nodes": 8, "anchors.count": 8}
        )
        metrics = scenario_trial(np.random.default_rng(8), spec=spec)
        assert np.isnan(metrics["fraction_localized"])
        result = run_monte_carlo(
            scenario_trial, 2, master_seed=3, trial_kwargs={"spec": spec}
        )
        assert result.aggregate()["fraction_localized"]["n"] == 0.0

    @pytest.mark.slow
    def test_campaign_over_lss_trials(self):
        spec = ScenarioSpec(
            scenario_id="campaign-lss",
            deployment=DeploymentSpec(
                kind="uniform", n_nodes=14, width_m=35.0, height_m=35.0,
                min_separation_m=5.0,
            ),
            anchors=AnchorSpec(strategy="none"),
            solver=SolverSpec(
                algorithm="lss", min_spacing_m=6.0, restarts=3, max_epochs=400
            ),
        )
        result = run_monte_carlo(
            scenario_trial, 4, master_seed=2005, trial_kwargs={"spec": spec}
        )
        agg = result.aggregate()
        assert agg["mean_error_m"]["n"] == 4.0
        assert agg["mean_error_m"]["mean"] < 10.0
