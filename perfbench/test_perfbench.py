"""Tests for the campaign benchmark's own code (not for the system under test)."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import bench_stats
import bench_trace
import host_speed
import measure

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class TestTailPercentile:
    @pytest.mark.parametrize("n, p", [(11, 9), (24, 58), (40, 75), (200, 95)])
    def test_leaves_at_least_ten_samples_beyond(self, n, p):
        values = [float(v) for v in range(n, 0, -1)]
        got_p, value = bench_stats.tail_percentile(values)
        assert got_p == p
        assert sum(v > value for v in values) >= bench_stats.TAIL_MIN_BEYOND
        # The next whole percentile would leave fewer than ten beyond.
        rank = math.ceil((p + 1) * n / 100)
        assert p == 99 or n - rank < bench_stats.TAIL_MIN_BEYOND

    def test_needs_more_than_ten_samples(self):
        with pytest.raises(ValueError):
            bench_stats.tail_percentile([1.0] * 10)


class TestSelfTime:
    def test_children_are_subtracted_from_their_parent_only(self):
        spans = [
            ("trial", 0.0, 10.0, -1),
            ("core.lss", 1.0, 7.0, 0),
            ("engine.batch.lss", 2.0, 6.0, 1),
            ("core.evaluation", 8.0, 9.0, 0),
        ]
        assert bench_stats.self_times(spans) == [3.0, 2.0, 4.0, 1.0]

    def test_self_time_sums_per_name_and_covers_the_root(self):
        spans = [
            ("trial", 0.0, 4.0, -1),
            ("deploy", 0.0, 1.0, 0),
            ("deploy", 1.0, 1.5, 0),
            ("trial", 4.0, 6.0, -1),
        ]
        totals = bench_stats.self_time_by_name(spans)
        assert totals == {"trial": 4.5, "deploy": 1.5}
        assert sum(totals.values()) == 6.0

    def test_tracer_spans_nest(self):
        tracer = bench_trace.Tracer()
        outer = tracer.open("trial")
        inner = tracer.open("deploy")
        tracer.close(inner)
        tracer.close(outer)
        assert [span[3] for span in tracer.spans] == [-1, 0]
        own = bench_stats.self_times([tuple(s) for s in tracer.spans])
        assert own[0] >= 0.0 and own[1] >= 0.0


class TestFailedAccounting:
    def test_nan_and_mismatch_each_count_once(self):
        ok = {"mean_error_m": 1.0}
        nan = {"mean_error_m": float("nan")}
        records = [ok, nan, {"mean_error_m": 2.0}, nan]
        reference = [ok, nan, {"mean_error_m": 2.5}, {"mean_error_m": 3.0}]
        # trial 1: NaN; trial 2: mismatch; trial 3: NaN and mismatch.
        assert bench_stats.count_failed(records, reference) == 3

    def test_reference_may_cover_leading_trials_only(self):
        ok = {"mean_error_m": 1.0}
        nan = {"mean_error_m": float("nan")}
        assert bench_stats.count_failed([ok, ok, {"mean_error_m": 5.0}], [ok]) == 0
        assert bench_stats.count_failed([ok, ok, nan], [ok]) == 1

    def test_equal_records_do_not_fail(self):
        records = [{"a": 1.0, "b": 2.0}]
        assert bench_stats.count_failed(records, [dict(records[0])]) == 0
        assert not bench_stats.metrics_equal({"a": 1.0}, {"a": 1.0, "b": 2.0})


def _campaign(errors):
    from repro.engine import CampaignResult, TrialRecord

    return CampaignResult(
        master_seed=0,
        records=tuple(
            TrialRecord(index=i, metrics={"mean_error_m": e, "fraction_localized": 1.0})
            for i, e in enumerate(errors)
        ),
    )


class _Cell:
    scenario_id = "cell"


class _Workload:
    cells = (_Cell(),)


class TestOutputCheck:
    def test_perturbed_record_is_reported(self):
        good = _campaign([1.0, 2.0])
        bad = _campaign([1.0, 2.0 + 1e-12])
        assert measure.record_problems(_Workload, [good], [_campaign([1.0, 2.0])], "x") == []
        assert len(measure.record_problems(_Workload, [good], [bad], "x")) == 1

    def test_perturbed_pin_fails(self):
        summary = measure.accuracy([_campaign([1.0, 3.0])])
        assert summary == {
            "n_trials": 2, "mean_error_m": 2.0, "fraction_localized": 1.0, "nan_trials": 0
        }
        pins = {"w": {"0": dict(summary)}}
        assert measure.check_pin(pins, "w", 0, summary) == []
        pins["w"]["0"]["mean_error_m"] = 2.0 * (1 + 1e-6)
        assert len(measure.check_pin(pins, "w", 0, summary)) == 1
        # Another seed or trial count is not pinned, so it is not checked.
        assert measure.check_pin(pins, "w", 1, summary) == []
        assert measure.check_pin(pins, "w", 0, dict(summary, n_trials=3)) == []

    def test_reference_pins_the_default_and_held_out_seeds(self):
        reference = json.loads((HERE / "reference.json").read_text())
        seeds = {str(reference["default_seed"]), str(reference["held_out_seed"])}
        for workload in BENCHMARK["workloads"]:
            assert set(reference["pins"][workload["name"]]) == seeds


class TestTracing:
    def test_wraps_every_lookup_site_and_restores(self):
        import repro.scenarios.runner as runner
        import repro.scenarios.trial as trial
        from repro import deploy

        original = trial.scenario_trial
        tracer = bench_trace.Tracer()
        with bench_trace.installed(tracer):
            assert runner.scenario_trial is not original
            assert runner.scenario_trial.__wrapped__ is original
            deploy.square_grid(2, 2, spacing_m=1.0)
        assert runner.scenario_trial is original
        assert bench_trace.span_calls(tracer) == {"deploy": 1}

    def test_every_per_layer_metric_is_produced(self):
        names = [m["name"] for m in BENCHMARK["per_layer"]]
        tracer = bench_trace.Tracer()
        tracer.close(tracer.open("trial"))
        metrics = bench_trace.layer_metrics(tracer, {}, [1.0], names)
        caller_added = {"mean_error_m", "peak_rss_mb", "setup.import_s", "setup.warmup_s"}
        assert set(names) - set(metrics) == caller_added

    def test_lss_bytes_per_epoch(self):
        # 2 configs, 3 nodes, 2 edges, 1 constraint pair.
        assert bench_trace.lss_bytes_per_epoch(2, 3, 2, 1) == 8 * 2 * (36 + 8 + 18)


class TestHostSpeed:
    def test_scale_is_one_at_the_reference_speed(self):
        ref = host_speed.REFERENCE_PROBE_S
        assert host_speed.scale(ref, ref) == 1.0
        assert host_speed.scale(2 * ref, 2 * ref) == 0.5

    def test_each_lap_is_scaled_by_the_probes_at_its_ends(self, monkeypatch):
        clock_reads = iter([0.0, 1.0, 1.5, 3.5, 4.0])
        monkeypatch.setattr(
            host_speed, "time", SimpleNamespace(perf_counter=lambda: next(clock_reads))
        )
        probes = iter([0.004, 0.008, 0.002])
        monkeypatch.setattr(host_speed, "probe", lambda: next(probes))
        clock = host_speed.AdjustedClock()
        first, second = clock.lap(), clock.lap()
        assert first == host_speed.scale(0.004, 0.008)
        assert second == host_speed.scale(0.008, 0.002)
        # Probing between laps is not counted: the laps are 1.0 s and 2.0 s.
        assert clock.raw_s == 3.0
        assert clock.adjusted_s == pytest.approx(1.0 * first + 2.0 * second)


def test_refuses_to_run_without_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "distributed-lss",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
