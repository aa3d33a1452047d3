"""Tests for the adaptive campaign scheduler.

The headline guarantee: an early-stopped campaign's committed trial
records are an *exact prefix* of the same-seed fixed-count campaign —
for any worker count — because trial seeds are keyed by index alone and
the stopping rule is evaluated only at fixed chunk boundaries on the
in-order record prefix.
"""

import multiprocessing

import numpy as np
import pytest

from repro import telemetry
from repro.engine import (
    CampaignResult,
    ConfidenceStop,
    ScheduledCampaignResult,
    resolve_chunk_size,
    run_adaptive,
    run_monte_carlo,
)
from repro.errors import ValidationError
from repro.telemetry import TraceRecorder


def _tight_trial(rng):
    """Low-variance metric: converges quickly."""
    return {"x": float(rng.normal(5.0, 0.05))}


def _wild_trial(rng):
    """High-variance metric: never converges within small budgets."""
    return {"x": float(rng.normal(0.0, 100.0))}


class _StopWitness(TraceRecorder):
    """Notes the live child processes when the scheduler reports its
    stop, which is after the commit loop and before it returns."""

    children_at_stop = None

    def event(self, name, **fields):
        if name == "scheduler.stop":
            self.children_at_stop = multiprocessing.active_children()
        super().event(name, **fields)


def _sometimes_nan_trial(rng):
    value = rng.normal(2.0, 0.01)
    if rng.random() < 0.3:
        return {"x": float("nan")}
    return {"x": float(value)}


class TestConfidenceStop:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ConfidenceStop(confidence=1.0)
        with pytest.raises(ValidationError):
            ConfidenceStop(tolerance=0.0)
        with pytest.raises(ValidationError):
            ConfidenceStop(min_trials=1)

    def test_half_width_matches_manual_formula(self):
        stop = ConfidenceStop(metric="x", tolerance=0.1, confidence=0.95)
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        expected = 1.959963984540054 * values.std(ddof=1) / np.sqrt(5)
        assert stop.half_width(values) == pytest.approx(expected, rel=1e-12)

    def test_half_width_needs_two_finite_samples(self):
        stop = ConfidenceStop()
        assert stop.half_width(np.array([1.0])) == float("inf")
        assert stop.half_width(np.array([1.0, float("nan")])) == float("inf")

    def test_satisfied_requires_min_trials(self):
        stop = ConfidenceStop(metric="x", tolerance=100.0, min_trials=8)
        assert not stop.satisfied(np.ones(7))
        assert stop.satisfied(np.ones(8))

    def test_nan_values_do_not_count_toward_min_trials(self):
        stop = ConfidenceStop(metric="x", tolerance=100.0, min_trials=4)
        values = np.array([1.0, 1.0, float("nan"), float("nan"), 1.0])
        assert not stop.satisfied(values)

    def test_relative_mode(self):
        stop = ConfidenceStop(metric="x", tolerance=0.5, relative=True, min_trials=2)
        # mean 10, std tiny -> relative half-width far below 0.5
        assert stop.satisfied(np.array([10.0, 10.01, 9.99, 10.0]))
        # mean ~0 with spread can never satisfy a relative tolerance
        assert not stop.satisfied(np.array([-1.0, 1.0, -1.0, 1.0]))

    def test_describe_is_canonical(self):
        stop = ConfidenceStop(metric="x", tolerance=0.25)
        desc = stop.describe()
        assert desc["rule"] == "confidence" and desc["tolerance"] == 0.25

    def test_z_value_is_computed_once_per_confidence(self):
        """Regression: z_value() used to re-import scipy.stats and
        recompute the quantile at every chunk-boundary evaluation; it is
        now a module-level lru_cache keyed on the confidence level."""
        from repro.engine.scheduler import _normal_quantile

        _normal_quantile.cache_clear()
        stop_a = ConfidenceStop(metric="x", confidence=0.95)
        stop_b = ConfidenceStop(metric="y", confidence=0.95)
        values = np.array([1.0, 2.0, 3.0, 4.0])
        for _ in range(3):
            stop_a.half_width(values)
            stop_b.half_width(values)
        info = _normal_quantile.cache_info()
        assert info.misses == 1  # one ppf evaluation for 0.95, ever
        assert info.hits == 5
        assert stop_a.z_value() == pytest.approx(1.959963984540054, rel=1e-12)
        # A different confidence level is its own cache line.
        ConfidenceStop(confidence=0.99).z_value()
        assert _normal_quantile.cache_info().misses == 2


class TestResolveChunkSize:
    def test_default_from_rule(self):
        assert resolve_chunk_size(ConfidenceStop(min_trials=8), None) == 4
        assert resolve_chunk_size(ConfidenceStop(min_trials=20), None) == 10

    def test_explicit_value(self):
        assert resolve_chunk_size(ConfidenceStop(), 7) == 7
        with pytest.raises(ValidationError):
            resolve_chunk_size(ConfidenceStop(), 0)


class TestEarlyStopping:
    def test_converges_early_on_tight_metric(self):
        stop = ConfidenceStop(metric="x", tolerance=0.05, min_trials=8)
        result = run_adaptive(_tight_trial, 100, stopping=stop, master_seed=1)
        assert isinstance(result, ScheduledCampaignResult)
        assert result.converged
        assert result.n_trials < 100
        assert result.trials_saved == 100 - result.n_trials
        assert "within tolerance" in result.stop_reason

    def test_exhausts_budget_on_wild_metric(self):
        stop = ConfidenceStop(metric="x", tolerance=0.01, min_trials=8)
        result = run_adaptive(_wild_trial, 16, stopping=stop, master_seed=1)
        assert not result.converged
        assert result.n_trials == 16
        assert result.trials_saved == 0
        assert "budget exhausted" in result.stop_reason

    def test_early_stop_is_exact_prefix_of_fixed_run(self):
        """The acceptance contract: records, metrics, and aggregates of
        the early-stopped campaign equal the fixed campaign's prefix."""
        stop = ConfidenceStop(metric="x", tolerance=0.05, min_trials=8)
        adaptive = run_adaptive(_tight_trial, 100, stopping=stop, master_seed=9)
        fixed = run_monte_carlo(_tight_trial, 100, master_seed=9)
        assert adaptive.converged and adaptive.n_trials < fixed.n_trials
        assert adaptive.records == fixed.records[: adaptive.n_trials]
        prefix = CampaignResult(
            master_seed=9, records=fixed.records[: adaptive.n_trials]
        )
        assert adaptive.aggregate() == prefix.aggregate()

    def test_stops_only_at_chunk_boundaries(self):
        stop = ConfidenceStop(metric="x", tolerance=1e9, min_trials=2)
        result = run_adaptive(
            _tight_trial, 100, stopping=stop, master_seed=0, chunk_size=7
        )
        assert result.n_trials == 7
        assert result.chunk_size == 7

    def test_half_width_trace_tracks_boundaries(self):
        stop = ConfidenceStop(metric="x", tolerance=0.0001, min_trials=4)
        result = run_adaptive(
            _tight_trial, 12, stopping=stop, master_seed=0, chunk_size=4
        )
        assert not result.converged
        assert len(result.half_width_trace) == 3  # boundaries at 4, 8, 12
        assert all(np.isfinite(result.half_width_trace))

    def test_nan_trials_consume_budget_but_not_confidence(self):
        stop = ConfidenceStop(metric="x", tolerance=0.05, min_trials=8)
        result = run_adaptive(_sometimes_nan_trial, 60, stopping=stop, master_seed=2)
        agg = result.aggregate()["x"]
        assert agg["n_nan"] > 0
        assert result.converged
        assert agg["n"] >= 8

    def test_validation(self):
        stop = ConfidenceStop()
        with pytest.raises(ValidationError):
            run_adaptive(_tight_trial, 0, stopping=stop)
        with pytest.raises(ValidationError):
            run_adaptive(_tight_trial, 4, stopping=stop, n_workers=0)
        with pytest.raises(ValidationError):
            run_adaptive(_tight_trial, 4, stopping="confidence")


class TestWorkerIndependence:
    @pytest.mark.slow
    def test_committed_prefix_identical_for_any_worker_count(self):
        """Workers may speculate past the stopping point, but the
        committed records must match the serial run exactly."""
        stop = ConfidenceStop(metric="x", tolerance=0.05, min_trials=8)
        serial = run_adaptive(_tight_trial, 64, stopping=stop, master_seed=5)
        parallel = run_adaptive(
            _tight_trial, 64, stopping=stop, master_seed=5, n_workers=4
        )
        assert serial.converged and parallel.converged
        assert parallel.records == serial.records
        assert parallel.aggregate() == serial.aggregate()
        assert parallel.half_width_trace == serial.half_width_trace

    def test_early_stop_tears_down_the_pool(self):
        """A stop at the first boundary ends the pool's speculative
        trials before the scheduler reports the stop, not when the
        trial stream is garbage collected."""
        stop = ConfidenceStop(metric="x", tolerance=1.0, min_trials=4)
        inline = run_adaptive(_tight_trial, 200, stopping=stop, chunk_size=4)
        with telemetry.recording(_StopWitness()) as witness:
            pooled = run_adaptive(
                _tight_trial, 200, stopping=stop, chunk_size=4, n_workers=2
            )
        assert inline.n_trials == 4 and len(inline.half_width_trace) == 1
        assert pooled.records == inline.records
        assert witness.children_at_stop == []
        assert multiprocessing.active_children() == []

    @pytest.mark.slow
    def test_parallel_prefix_of_parallel_fixed_run(self):
        stop = ConfidenceStop(metric="x", tolerance=0.05, min_trials=8)
        adaptive = run_adaptive(
            _tight_trial, 64, stopping=stop, master_seed=5, n_workers=4
        )
        fixed = run_monte_carlo(_tight_trial, 64, master_seed=5, n_workers=4)
        assert adaptive.records == fixed.records[: adaptive.n_trials]
