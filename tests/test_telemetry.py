"""Tests for the repro.telemetry subsystem.

The three design rules from ``repro/telemetry/__init__.py`` each get a
pinning test here:

1. off-by-default — the process-wide recorder is the null object and
   module helpers are no-ops until ``recording()`` installs a tracer;
2. telemetry never influences results — a traced scenario run publishes
   **byte-identical** store payloads to an untraced one (determinism
   guarantee #8 in ``docs/architecture.md``);
3. multiprocessing-deterministic — merging worker snapshots in
   trial-index order makes traces worker-count independent.
"""

import json
import math

import pytest

from repro import telemetry
from repro.engine import (
    ConfidenceStop,
    ShardSpec,
    run_adaptive,
    run_campaign_shard,
    run_monte_carlo,
)
from repro.engine.campaign import CampaignResult, TrialRecord
from repro.errors import ValidationError
from repro.scenarios import (
    AnchorSpec,
    DeploymentSpec,
    RangingSpec,
    ScenarioSpec,
    SolverSpec,
    run_scenario,
)
from repro.store import ResultStore
from repro.telemetry import (
    NULL_RECORDER,
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
    read_trace,
    validate_trace,
)
from repro.telemetry.schema import validate_record


def _echo_trial(rng):
    """Minimal deterministic trial; must be module-level (picklable).
    Its counter is written in the worker and merged into the parent."""
    telemetry.count("test.echo_trials", 1)
    return {"draw": float(rng.random())}


def _tight_trial(rng):
    """Low-variance metric: converges quickly under ConfidenceStop."""
    return {"x": float(rng.normal(5.0, 0.01))}


def _tiny_spec() -> ScenarioSpec:
    return ScenarioSpec(
        scenario_id="telemetry-tiny",
        deployment=DeploymentSpec(
            kind="uniform", n_nodes=12, width_m=40.0, height_m=40.0
        ),
        anchors=AnchorSpec(strategy="random", count=5),
        ranging=RangingSpec(model="gaussian", max_range_m=20.0, sigma_m=0.33),
        solver=SolverSpec(algorithm="multilateration"),
        n_trials=2,
    )


class TestNullDefault:
    def test_default_recorder_is_null(self):
        assert telemetry.current() is NULL_RECORDER
        assert not telemetry.enabled()

    def test_helpers_are_noops_when_disabled(self):
        # None of these may raise or leak state while tracing is off.
        telemetry.count("x", 3)
        telemetry.observe("y", 1.5)
        telemetry.gauge("z", 2.0)
        telemetry.event("e", detail="ignored")
        telemetry.set_manifest(run="ignored")
        telemetry.add_span("s", 0.1, 0.1)
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        assert telemetry.current() is NULL_RECORDER
        assert NULL_RECORDER.current_path() == ""

    def test_recording_installs_and_restores(self):
        with telemetry.recording() as rec:
            assert telemetry.current() is rec
            assert telemetry.enabled()
            assert rec.active
        assert telemetry.current() is NULL_RECORDER

    def test_recording_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with telemetry.recording():
                raise RuntimeError("boom")
        assert telemetry.current() is NULL_RECORDER

    def test_recording_nests(self):
        with telemetry.recording() as outer:
            with telemetry.recording() as inner:
                assert telemetry.current() is inner
            assert telemetry.current() is outer
        assert telemetry.current() is NULL_RECORDER


class TestTraceRecorder:
    def test_span_paths_nest(self):
        rec = TraceRecorder()
        with rec.span("a"):
            with rec.span("b", kind="leaf"):
                assert rec.current_path() == "a/b"
        paths = [s["path"] for s in rec.spans]
        assert paths == ["a/b", "a"]  # inner closes (and records) first
        assert rec.spans[0]["attrs"] == {"kind": "leaf"}
        assert all(s["wall_s"] >= 0 and s["cpu_s"] >= 0 for s in rec.spans)

    def test_add_span_under_override(self):
        rec = TraceRecorder()
        rec.add_span("chunk", 0.25, 0.20, under="campaign", index=1)
        (span,) = rec.spans
        assert span["path"] == "campaign/chunk"
        assert span["wall_s"] == 0.25
        assert span["attrs"] == {"index": 1}

    def test_counters_sum_gauges_latest_histograms_collect(self):
        rec = TraceRecorder()
        rec.count("c")
        rec.count("c", 4)
        rec.gauge("g", 1.0)
        rec.gauge("g", 7.0)
        rec.observe("h", 1.0)
        rec.observe("h", 3.0)
        assert rec.counters["c"] == 5
        assert rec.gauges["g"] == 7.0
        assert rec.histograms["h"] == [1.0, 3.0]

    def test_events_carry_current_path(self):
        rec = TraceRecorder()
        with rec.span("campaign"):
            rec.event("scheduler.boundary", chunk=1, satisfied=False)
        (event,) = rec.events
        assert event["path"] == "campaign"
        assert event["fields"] == {"chunk": 1, "satisfied": False}

    def test_instrumentation_calls_counted(self):
        rec = TraceRecorder()
        with rec.span("a"):
            rec.count("c")
            rec.observe("h", 1.0)
        rec.gauge("g", 1.0)
        rec.event("e")
        assert rec.instrumentation_calls == 5

    def test_merge_worker_reroots_and_sums(self):
        worker = TraceRecorder()
        with worker.span("solve", trial=3):
            worker.count("engine.batch.gd_solves", 2)
            worker.event("probe")
        data = worker.worker_data()
        assert data["busy_s"] == pytest.approx(worker.spans[0]["wall_s"])

        parent = TraceRecorder()
        parent.count("engine.batch.gd_solves", 1)
        with parent.span("campaign"):
            parent.merge_worker(data)
        assert parent.counters["engine.batch.gd_solves"] == 3
        merged_span = [s for s in parent.spans if s["name"] == "solve"]
        assert [s["path"] for s in merged_span] == ["campaign/solve"]
        (event,) = parent.events
        assert event["path"] == "campaign/solve"


def _fixed_run(n_workers):
    return run_monte_carlo(_echo_trial, 6, master_seed=11, n_workers=n_workers)


def _shard_run(n_workers):
    return run_campaign_shard(
        _echo_trial, 9, shard=ShardSpec(1, 2), master_seed=11, n_workers=n_workers
    )


class TestWorkerCountInvariance:
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "run, root, n_solves",
        [(_fixed_run, "campaign", 6), (_shard_run, "shard", 4)],
        ids=["fixed", "shard"],
    )
    def test_campaign_trace_is_worker_count_independent(self, run, root, n_solves):
        traced = []
        for n_workers in (1, 2):
            with telemetry.recording() as rec:
                result = run(n_workers)
            traced.append((result, rec))
        (res1, rec1), (res2, rec2) = traced
        assert [r.metrics for r in res1.records] == [
            r.metrics for r in res2.records
        ]
        assert rec1.counters == rec2.counters
        assert sorted(s["path"] for s in rec1.spans) == sorted(
            s["path"] for s in rec2.spans
        )
        paths = [s["path"] for s in rec1.spans]
        assert paths.count(root) == 1
        assert paths.count(f"{root}/solve") == n_solves
        assert rec1.counters["test.echo_trials"] == n_solves
        if root == "shard":
            assert rec1.counters["engine.shard.trials"] == n_solves

    @pytest.mark.slow
    def test_adaptive_campaign_trace_is_worker_count_independent(self):
        def run(n_workers):
            with telemetry.recording() as rec:
                result = run_adaptive(
                    _tight_trial,
                    12,
                    stopping=ConfidenceStop(
                        metric="x", tolerance=0.5, min_trials=4
                    ),
                    master_seed=5,
                    n_workers=n_workers,
                    chunk_size=4,
                )
            return result, rec

        res1, rec1 = run(1)
        res2, rec2 = run(2)
        assert [r.metrics for r in res1.records] == [
            r.metrics for r in res2.records
        ]
        assert rec1.counters == rec2.counters
        boundaries1 = [e for e in rec1.events if e["name"] == "scheduler.boundary"]
        boundaries2 = [e for e in rec2.events if e["name"] == "scheduler.boundary"]
        assert [b["fields"] for b in boundaries1] == [
            b["fields"] for b in boundaries2
        ]


class TestEngineInstrumentation:
    def test_fixed_campaign_spans_and_counters(self):
        with telemetry.recording() as rec:
            run_monte_carlo(_echo_trial, 3, master_seed=0)
        paths = [s["path"] for s in rec.spans]
        assert paths.count("campaign") == 1
        assert paths.count("campaign/solve") == 3
        assert rec.counters["engine.campaign.trials"] == 3
        assert rec.gauges["engine.campaign.n_workers"] == 1.0
        assert 0.0 < rec.gauges["engine.campaign.utilization"] <= 1.0
        assert len(rec.histograms["engine.campaign.trial_wall_s"]) == 3

    def test_adaptive_scheduler_events_and_savings(self):
        with telemetry.recording() as rec:
            result = run_adaptive(
                _tight_trial,
                40,
                stopping=ConfidenceStop(metric="x", tolerance=0.5, min_trials=4),
                master_seed=5,
                chunk_size=4,
            )
        assert result.converged
        boundaries = [e for e in rec.events if e["name"] == "scheduler.boundary"]
        assert boundaries, "expected at least one boundary event"
        assert boundaries[-1]["fields"]["satisfied"] is True
        (stop,) = [e for e in rec.events if e["name"] == "scheduler.stop"]
        assert stop["fields"]["converged"] is True
        assert rec.counters["scheduler.trials_saved"] == result.trials_saved
        assert rec.counters["scheduler.trials_committed"] == result.n_trials
        chunk_paths = [s["path"] for s in rec.spans if s["name"] == "chunk"]
        assert chunk_paths == ["campaign/chunk"] * len(boundaries)
        solve_paths = [s["path"] for s in rec.spans if s["name"] == "solve"]
        assert solve_paths == ["campaign/chunk/solve"] * result.n_trials

    def test_batch_kernel_counters_flow_through_trials(self):
        spec = _tiny_spec()
        with telemetry.recording() as rec:
            run_scenario(spec, master_seed=3, store=None)
        assert rec.counters["engine.campaign.trials"] == 2
        # The multilateration solver runs the batch GD kernel per trial.
        assert rec.counters["engine.batch.gd_solves"] >= 2
        assert rec.counters["engine.batch.gd_iterations"] > 0


class TestStoreInstrumentation:
    def test_hit_miss_put_counters(self, tmp_path):
        spec = _tiny_spec()
        store = ResultStore(tmp_path)
        with telemetry.recording() as cold:
            run_scenario(spec, master_seed=3, store=store)
        assert cold.counters["store.filesystem.miss"] == 1
        assert cold.counters["store.filesystem.put"] == 1
        assert "store.filesystem.hit" not in cold.counters
        assert cold.histograms["store.filesystem.get_ms"]
        assert cold.histograms["store.filesystem.put_ms"]

        with telemetry.recording() as warm:
            run_scenario(spec, master_seed=3, store=store)
        assert warm.counters["store.filesystem.hit"] == 1
        assert "store.filesystem.miss" not in warm.counters
        assert "store.filesystem.put" not in warm.counters


class TestTraceInvariance:
    """Determinism guarantee #8: tracing never changes stored bytes."""

    def test_traced_and_untraced_payloads_byte_identical(self, tmp_path):
        spec = _tiny_spec()

        untraced_store = ResultStore(tmp_path / "untraced")
        run_scenario(spec, master_seed=7, store=untraced_store)

        traced_store = ResultStore(tmp_path / "traced")
        with telemetry.recording():
            run_scenario(spec, master_seed=7, store=traced_store)

        keys_a = sorted(untraced_store.iter_keys())
        keys_b = sorted(traced_store.iter_keys())
        assert keys_a == keys_b and len(keys_a) == 1
        for key in keys_a:
            assert untraced_store.get_bytes(key) == traced_store.get_bytes(key)


class TestTraceSerialization:
    def _sample_recorder(self):
        rec = TraceRecorder()
        rec.set_manifest(scenario_id="telemetry-tiny", master_seed=7)
        with rec.span("campaign", mode="fixed"):
            rec.count("engine.campaign.trials", 2)
            rec.observe("engine.campaign.trial_wall_s", 0.5)
            rec.observe("engine.campaign.trial_wall_s", 1.5)
            rec.gauge("engine.campaign.n_workers", 1)
            rec.event("scheduler.stop", reason="budget")
        return rec

    def test_round_trip(self, tmp_path):
        rec = self._sample_recorder()
        path = tmp_path / "trace.jsonl"
        n = rec.write(path)
        manifest, records = read_trace(path)
        assert n == 1 + len(records)
        assert manifest["schema"] == TRACE_SCHEMA_VERSION
        assert manifest["scenario_id"] == "telemetry-tiny"
        assert manifest["master_seed"] == 7
        for key in ("created_unix", "host", "repro_version", "python"):
            assert key in manifest
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        assert [s["path"] for s in by_type["span"]] == ["campaign"]
        (counter,) = by_type["counter"]
        assert counter == {
            "type": "counter",
            "name": "engine.campaign.trials",
            "value": 2,
        }
        (hist,) = by_type["histogram"]
        assert hist["count"] == 2
        assert hist["mean"] == pytest.approx(1.0)
        (event,) = by_type["event"]
        assert event["fields"] == {"reason": "budget"}

    def test_infinite_half_width_round_trips(self, tmp_path):
        rec = TraceRecorder()
        with rec.span("campaign"):
            rec.event("scheduler.boundary", half_width=float("inf"))
        path = tmp_path / "inf.jsonl"
        rec.write(path)
        _, records = read_trace(path)
        (event,) = [r for r in records if r["type"] == "event"]
        assert math.isinf(event["fields"]["half_width"])

    def test_numpy_attrs_are_scrubbed(self, tmp_path):
        np = pytest.importorskip("numpy")
        rec = TraceRecorder()
        rec.add_span("s", np.float64(0.5), np.float64(0.25), n=np.int64(3))
        rec.count("c", np.int64(2))
        path = tmp_path / "np.jsonl"
        rec.write(path)
        _, records = read_trace(path)  # would raise on non-JSON types
        (span,) = [r for r in records if r["type"] == "span"]
        assert span["attrs"] == {"n": 3}


class TestSchemaValidation:
    def _write_lines(self, path, records):
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")

    def _valid_records(self):
        rec = TraceRecorder()
        rec.count("c", 1)
        return rec.records()

    def test_unsupported_schema_version_rejected(self, tmp_path):
        records = self._valid_records()
        records[0]["schema"] = TRACE_SCHEMA_VERSION + 1
        path = tmp_path / "future.jsonl"
        self._write_lines(path, records)
        with pytest.raises(ValidationError, match="schema version"):
            read_trace(path)

    def test_manifest_must_come_first(self):
        records = self._valid_records()
        with pytest.raises(ValidationError, match="manifest"):
            validate_trace(records[1:] + records[:1])

    def test_duplicate_manifest_rejected(self):
        records = self._valid_records()
        with pytest.raises(ValidationError, match="more than one manifest"):
            validate_trace(records + [records[0]])

    def test_empty_trace_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            validate_trace([])

    def test_unknown_record_type_rejected(self):
        with pytest.raises(ValidationError, match="unknown record type"):
            validate_record({"type": "flamegraph"}, line_no=3)

    def test_span_path_must_end_with_name(self):
        with pytest.raises(ValidationError, match="end with its name"):
            validate_record(
                {
                    "type": "span",
                    "name": "solve",
                    "path": "campaign/chunk",
                    "wall_s": 0.1,
                    "cpu_s": 0.1,
                    "seq": 0,
                    "attrs": {},
                }
            )

    def test_negative_wall_rejected(self):
        with pytest.raises(ValidationError, match="wall_s"):
            validate_record(
                {
                    "type": "span",
                    "name": "a",
                    "path": "a",
                    "wall_s": -0.1,
                    "cpu_s": 0.0,
                    "seq": 0,
                    "attrs": {},
                }
            )

    def test_bool_not_accepted_as_number(self):
        with pytest.raises(ValidationError, match="must not be a bool"):
            validate_record({"type": "counter", "name": "c", "value": True})

    def test_malformed_json_names_the_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        records = self._valid_records()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(records[0]) + "\n")
            fh.write("{not json\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_trace(path)

    def test_missing_file_raises_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            read_trace(tmp_path / "absent.jsonl")


class TestNanTrialAccounting:
    def test_n_nan_trials_counts_non_finite(self):
        records = (
            TrialRecord(index=0, metrics={"x": 1.0}),
            TrialRecord(index=1, metrics={"x": float("nan")}),
            TrialRecord(index=2, metrics={"x": 2.0}),
        )
        result = CampaignResult(master_seed=0, records=records)
        assert result.n_nan_trials == 1

    def test_n_nan_trials_zero_when_clean(self):
        records = (
            TrialRecord(index=0, metrics={"x": 1.0}),
            TrialRecord(index=1, metrics={"x": 2.0}),
        )
        result = CampaignResult(master_seed=0, records=records)
        assert result.n_nan_trials == 0

    def test_cli_warns_on_nan_trials(self, capsys):
        from repro.__main__ import _print_nan_warning

        records = (
            TrialRecord(index=0, metrics={"x": 1.0}),
            TrialRecord(index=1, metrics={"x": float("nan")}),
        )
        _print_nan_warning(CampaignResult(master_seed=0, records=records))
        out = capsys.readouterr().out
        assert "warning: 1 of 2 trials" in out
        assert "non-finite" in out

    def test_cli_silent_when_clean(self, capsys):
        from repro.__main__ import _print_nan_warning

        records = (TrialRecord(index=0, metrics={"x": 1.0}),)
        _print_nan_warning(CampaignResult(master_seed=0, records=records))
        assert capsys.readouterr().out == ""


class TestManifestNowSeam:
    """``base_manifest(now=)`` pins ``created_unix`` so manifest-writing
    tests are not time-dependent (the ``store/gc.py`` seam idiom)."""

    def test_base_manifest_accepts_injected_now(self):
        from repro.telemetry.manifest import base_manifest

        assert base_manifest(now=123.5)["created_unix"] == 123.5

    def test_base_manifest_defaults_to_the_real_clock(self):
        import time

        from repro.telemetry.manifest import base_manifest

        before = time.time()
        stamp = base_manifest()["created_unix"]
        after = time.time()
        assert before <= stamp <= after

    def test_recorder_records_threads_now_to_manifest(self):
        recorder = TraceRecorder()
        recorder.count("demo", 1)
        manifest = recorder.records(now=42.0)[0]
        assert manifest["type"] == "manifest"
        assert manifest["created_unix"] == 42.0

    def test_recorder_write_threads_now_to_manifest(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder()
        recorder.count("demo", 1)
        recorder.write(path, now=7.25)
        manifest = read_trace(path)[0]
        assert manifest["created_unix"] == 7.25

    def test_two_records_calls_with_same_now_agree_on_created_unix(self):
        recorder = TraceRecorder()
        recorder.count("demo", 1)
        first = recorder.records(now=5.0)[0]["created_unix"]
        second = recorder.records(now=5.0)[0]["created_unix"]
        assert first == second == 5.0
