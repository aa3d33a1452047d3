"""Tests for :mod:`repro.perf`: the bench-record schema, the bench
harness (store isolation + guarantee #10 byte identity), the perf
history store, the noise-aware regression checker, and the ``repro
bench`` CLI surface."""

import json
import os

import pytest

from repro.__main__ import main
from repro.errors import ValidationError
from repro.experiments import DEFAULT_SEED, all_experiments
from repro.perf import (
    BENCH_SCHEMA_VERSION,
    Workload,
    append_record,
    bench_filename,
    compare_records,
    get_suite,
    history_filename,
    list_records,
    make_bench_record,
    make_workload_result,
    read_bench_record,
    run_suite,
    run_workload,
    write_bench_record,
)
from repro.perf.history import render_history
from repro.perf.suites import register_suite
from repro.scenarios import get_scenario, run_scenario
from repro.store import ResultStore


def _result(workload_id="w", timings=(0.10, 0.11, 0.12), counters=None):
    return make_workload_result(
        workload_id=workload_id,
        kind="scenario",
        timings_s=list(timings),
        counters=counters or {},
    )


def _record(label="smoke-test", results=None, now=1000.0):
    return make_bench_record(label, results or [_result()], now=now)


# -- record schema -------------------------------------------------------


class TestBenchRecordSchema:
    def test_round_trip(self, tmp_path):
        record = _record()
        path = tmp_path / bench_filename(record["label"])
        write_bench_record(path, record)
        loaded = read_bench_record(path)
        assert loaded == record
        assert loaded["schema"] == BENCH_SCHEMA_VERSION
        assert loaded["manifest"]["created_unix"] == 1000.0
        for key in ("host", "python", "repro_version", "code_version"):
            assert key in loaded["manifest"]

    def test_summary_stats_derived_from_raw_timings(self):
        entry = _result(timings=[0.3, 0.1, 0.2])
        assert entry["repeats"] == 3
        assert entry["median_s"] == pytest.approx(0.2)
        assert entry["min_s"] == pytest.approx(0.1)

    def test_unsafe_label_rejected(self):
        with pytest.raises(ValidationError, match="label"):
            make_bench_record("../escape", [_result()])

    def test_bumped_schema_version_cleanly_rejected(self, tmp_path):
        record = _record()
        record["schema"] = BENCH_SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ValidationError, match="this build reads version"):
            read_bench_record(path)

    def test_extra_keys_tolerated(self, tmp_path):
        # Forward-compatible minor additions must not break old readers.
        record = _record()
        record["future_field"] = {"anything": True}
        record["results"][0]["future_metric_note"] = "ok"
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(record))
        assert read_bench_record(path)["future_field"] == {"anything": True}

    def test_duplicate_result_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate result id"):
            make_bench_record("dup", [_result("same"), _result("same")])

    def test_nonpositive_timings_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            _result(timings=[0.1, 0.0])

    def test_repeats_must_match_timings(self, tmp_path):
        record = _record()
        record["results"][0]["repeats"] = 7
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ValidationError, match="repeats"):
            read_bench_record(path)

    def test_malformed_json_named(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="malformed JSON"):
            read_bench_record(path)


# -- suites --------------------------------------------------------------


class TestSuites:
    def test_shipped_suites_registered(self):
        for name in ("smoke", "full", "kernels", "paper"):
            assert get_suite(name)
        smoke_ids = [w.workload_id for w in get_suite("smoke")]
        assert len(smoke_ids) == len(set(smoke_ids))
        # One figure driver rides along so experiment timing is covered.
        assert any(w.kind == "experiment" for w in get_suite("smoke"))
        # `paper` times every registered driver exactly once, at the
        # seed the figures are reported at.
        paper = get_suite("paper")
        assert sorted(w.target_id for w in paper) == sorted(all_experiments())
        assert all(
            w.kind == "experiment" and w.seed == DEFAULT_SEED for w in paper
        )

    def test_unknown_suite_names_alternatives(self):
        with pytest.raises(ValidationError, match="smoke"):
            get_suite("nope")

    def test_duplicate_suite_name_rejected(self):
        with pytest.raises(ValidationError, match="already registered"):
            register_suite("smoke", get_suite("smoke"))

    def test_scenario_workload_needs_trials(self):
        with pytest.raises(ValidationError, match="n_trials"):
            Workload(workload_id="w", kind="scenario", target_id="x")

    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(ValidationError, match="kind"):
            Workload(workload_id="w", kind="mystery", target_id="x")

    def test_kernel_workload_names_a_pinned_stack(self):
        with pytest.raises(ValidationError, match="town-lss-b1"):
            Workload(workload_id="w", kind="kernel", target_id="nope")

    def test_kernels_suite_covers_both_sides_of_the_lss_choice(self):
        suite = get_suite("kernels")
        assert {w.kind for w in suite} == {"kernel"}
        assert [w.target_id for w in suite] == [
            "town-lss-b1", "fig21-b3", "town-distributed-lss-b49", "sweep-gd",
        ]


class TestKernelStacks:
    """Each pinned stack is the first descent call of its workload, with
    the stack size its id names."""

    @pytest.mark.parametrize(
        "target_id, seed, batch, kernel_name",
        [
            ("town-lss-b1", 0, 1, "batch_lss_descend"),
            ("fig21-b3", 2005, 3, "batch_lss_descend"),
            ("town-distributed-lss-b49", 0, 49, "batch_lss_descend_padded"),
        ],
    )
    def test_capture(self, target_id, seed, batch, kernel_name):
        from repro.perf.kernels import capture_stack

        kernel, args, kwargs = capture_stack(target_id, seed)
        assert kernel.__name__ == kernel_name
        assert args[0].shape[0] == batch
        assert kwargs["min_spacing_m"] is not None

    def test_capture_sweep_gd(self):
        from repro.perf.kernels import capture_stack

        kernel, args, kwargs = capture_stack("sweep-gd", 0)
        assert kernel.__name__ == "batch_gradient_descent"
        anchors, dists, weights, valid, initial = args
        assert anchors.shape == (37, 12, 2) and initial.shape == (37, 2)
        assert kwargs == {"step_size": 0.1, "max_iterations": 2000, "tolerance": 1e-9}

    def test_gd_kernel_workload_counts_its_iterations(self):
        workload = Workload(workload_id="k", kind="kernel", target_id="sweep-gd")
        result = run_workload(workload, repeats=1)
        counters = result["counters"]
        assert counters["engine.batch.gd_solves"] == 1
        assert counters["engine.batch.gd_problems"] == 37
        epochs = counters["engine.batch.gd_iterations"]
        assert result["metrics"]["us_per_epoch"] == pytest.approx(
            result["median_s"] * 1e6 / epochs
        )

    def test_kernel_workload_record(self):
        workload = Workload(workload_id="k", kind="kernel", target_id="town-lss-b1")
        result = run_workload(workload, repeats=2)
        assert result["kind"] == "kernel" and result["repeats"] == 2
        counters = result["counters"]
        # One descent per repeat; the counters are the last repeat's.
        assert counters["engine.batch.lss_solves"] == 1
        assert counters["engine.batch.lss_rebuilds"] >= 1
        assert counters["engine.batch.lss_terms"] > 0
        epochs = counters["engine.batch.lss_iterations"]
        assert result["metrics"]["us_per_epoch"] == pytest.approx(
            result["median_s"] * 1e6 / epochs
        )


# -- harness -------------------------------------------------------------

_TINY = Workload(
    workload_id="uniform-multilateration-2",
    kind="scenario",
    target_id="uniform-multilateration",
    seed=7,
    n_trials=2,
)


class TestRunWorkload:
    def test_result_shape_and_counters(self):
        entry = run_workload(_TINY, repeats=2)
        assert entry["id"] == _TINY.workload_id
        assert entry["repeats"] == 2
        assert all(t > 0 for t in entry["timings_s"])
        assert entry["counters"]["engine.campaign.trials"] == 2
        # Every repeat is store-isolated and cold: one put per repeat,
        # never a hit.
        assert entry["counters"]["store.filesystem.put"] == 1
        assert "store.filesystem.hit" not in entry["counters"]
        assert entry["metrics"]["trials_per_s"] > 0

    def test_experiment_repeats_start_from_cold_caches(self):
        """fig8 memoizes the field campaign in-process; every repeat must
        still simulate it, so the last repeat's counters show its store
        miss and put in that repeat's fresh store."""
        fig8 = Workload(
            workload_id="fig8", kind="experiment", target_id="fig8", seed=DEFAULT_SEED
        )
        entry = run_workload(fig8, repeats=2)
        assert entry["counters"]["store.filesystem.miss"] == 1
        assert entry["counters"]["store.filesystem.put"] == 1

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValidationError, match="repeats"):
            run_workload(_TINY, repeats=0)

    def test_store_env_restored(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", "/tmp/original-store")
        run_workload(_TINY, repeats=1)
        assert os.environ["REPRO_STORE_DIR"] == "/tmp/original-store"


class TestRunSuite:
    def test_smoke_suite_record(self):
        record = run_suite("smoke", repeats=1, now=1234.0)
        assert record["label"] == "smoke"
        manifest = record["manifest"]
        assert manifest["suite"] == "smoke"
        assert manifest["repeats"] == 1
        assert manifest["created_unix"] == 1234.0
        scenario_targets = {
            w.target_id for w in get_suite("smoke") if w.kind == "scenario"
        }
        assert set(manifest["spec_hashes"]) == scenario_targets
        for spec_hash in manifest["spec_hashes"].values():
            assert len(spec_hash) == 64
        assert [r["id"] for r in record["results"]] == [
            w.workload_id for w in get_suite("smoke")
        ]


class TestBenchByteIdentity:
    """Determinism guarantee #10: benching observes, never steers."""

    def test_benched_store_payloads_byte_identical(self, tmp_path):
        spec = get_scenario(_TINY.target_id)
        plain_store = ResultStore(tmp_path / "plain")
        run_scenario(
            spec, master_seed=_TINY.seed, n_trials=_TINY.n_trials, store=plain_store
        )

        benched_store = ResultStore(tmp_path / "benched")
        run_workload(_TINY, repeats=2, store=benched_store)

        keys_plain = sorted(plain_store.iter_keys())
        keys_benched = sorted(benched_store.iter_keys())
        assert keys_plain == keys_benched and len(keys_plain) == 1
        for key in keys_plain:
            assert plain_store.get_bytes(key) == benched_store.get_bytes(key)


# -- history -------------------------------------------------------------


class TestHistory:
    def test_append_is_idempotent(self, tmp_path):
        record = _record(now=100.0)
        path1, appended1 = append_record(tmp_path / "hist", record)
        path2, appended2 = append_record(tmp_path / "hist", record)
        assert appended1 and not appended2
        assert path1 == path2
        assert path1.name == history_filename(record)
        assert path1.name.startswith("BENCH_smoke-test_100_")

    def test_list_orders_by_created_stamp(self, tmp_path):
        newer = _record(now=200.0)
        older = _record(now=100.0, results=[_result(timings=[0.2, 0.2, 0.2])])
        append_record(tmp_path / "hist", newer)
        append_record(tmp_path / "hist", older)
        entries = list_records(tmp_path / "hist")
        stamps = [rec["manifest"]["created_unix"] for _, rec in entries]
        assert stamps == [100.0, 200.0]
        rendered = render_history(entries)
        assert "history: 2 records" in rendered
        assert "w" in rendered

    def test_missing_directory_fails(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            list_records(tmp_path / "nope")

    def test_corrupt_history_file_fails_loudly(self, tmp_path):
        append_record(tmp_path / "hist", _record(now=100.0))
        (tmp_path / "hist" / "BENCH_evil_1_0000000000.json").write_text("{}")
        with pytest.raises(ValidationError):
            list_records(tmp_path / "hist")


# -- regression checker --------------------------------------------------


def _timed_record(label, medians, noise=0.0, now=100.0):
    """One record per mapping of workload id -> median seconds."""
    results = [
        _result(
            workload_id,
            timings=[median, median * (1 + noise), median * (1 - noise / 2)],
            counters={"engine.campaign.trials": 8},
        )
        for workload_id, median in medians.items()
    ]
    return make_bench_record(label, results, now=now)


class TestCompareRecords:
    def test_identical_records_pass(self):
        record = _timed_record("base", {"a": 0.1, "b": 0.2})
        comparison = compare_records(record, record)
        assert comparison.exit_code == 0
        assert comparison.compared == 2
        assert comparison.regressions == []

    def test_2x_slowdown_flagged(self):
        baseline = _timed_record("base", {"a": 0.1, "b": 0.2})
        current = _timed_record("curr", {"a": 0.1, "b": 0.4})
        comparison = compare_records(baseline, current)
        assert comparison.exit_code == 1
        (finding,) = comparison.regressions
        assert finding.workload_id == "b"
        assert "+100%" in finding.detail
        assert "FAIL" in comparison.render()

    def test_speedup_is_informational(self):
        baseline = _timed_record("base", {"a": 0.4})
        current = _timed_record("curr", {"a": 0.1})
        comparison = compare_records(baseline, current)
        assert comparison.exit_code == 0
        (finding,) = comparison.findings
        assert finding.kind == "improvement" and not finding.gating

    def test_noise_widens_tolerance(self):
        # Spread (max-min)/median ≈ 1.5 on both sides -> allowed slowdown
        # becomes noise_mult * spread >> the 2x ratio, so no gate.
        baseline = _timed_record("base", {"a": 0.1}, noise=1.0)
        current = _timed_record("curr", {"a": 0.2}, noise=1.0)
        assert compare_records(baseline, current).exit_code == 0
        # The same 2x on stable timings gates.
        assert (
            compare_records(
                _timed_record("base", {"a": 0.1}),
                _timed_record("curr", {"a": 0.2}),
            ).exit_code
            == 1
        )

    def test_disjoint_workloads_incomparable(self):
        baseline = _timed_record("base", {"a": 0.1})
        current = _timed_record("curr", {"b": 0.1})
        comparison = compare_records(baseline, current)
        assert comparison.compared == 0
        assert comparison.exit_code == 2
        kinds = {f.kind for f in comparison.findings}
        assert kinds == {"coverage"}
        assert "nothing to compare" in comparison.render()

    def test_counter_drift_reported_not_gating(self):
        baseline = _timed_record("base", {"a": 0.1})
        current = _timed_record("curr", {"a": 0.1})
        current["results"][0]["counters"]["engine.campaign.trials"] = 16
        comparison = compare_records(baseline, current)
        assert comparison.exit_code == 0
        (finding,) = comparison.findings
        assert finding.kind == "counter-drift"
        assert "8 -> 16" in finding.detail


# -- CLI -----------------------------------------------------------------


class TestBenchCli:
    def test_bench_run_smoke_writes_valid_record(self, tmp_path, capsys):
        out = tmp_path / "BENCH_smoke.json"
        history = tmp_path / "hist"
        code = main(
            [
                "bench",
                "run",
                "--suite",
                "smoke",
                "--repeats",
                "1",
                "--out",
                str(out),
                "--history",
                str(history),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "bench suite 'smoke'" in printed
        assert f"-> {out}" in printed
        record = read_bench_record(out)  # validates schema
        assert record["label"] == "smoke"
        (history_file,) = list(history.glob("BENCH_smoke_*.json"))
        assert read_bench_record(history_file) == record

    def test_bench_run_unknown_suite_exits_2(self, capsys):
        assert main(["bench", "run", "--suite", "nope"]) == 2
        assert "unknown bench suite" in capsys.readouterr().err

    def test_bench_history_add_idempotent(self, tmp_path, capsys):
        record_path = tmp_path / "r.json"
        write_bench_record(record_path, _record(now=100.0))
        hist = str(tmp_path / "hist")
        assert main(["bench", "history", "--dir", hist, "--add", str(record_path)]) == 0
        assert "appended" in capsys.readouterr().out
        assert main(["bench", "history", "--dir", hist, "--add", str(record_path)]) == 0
        out = capsys.readouterr().out
        assert "already present" in out
        assert "history: 1 records" in out

    def test_bench_check_pass_and_fail(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        slow = tmp_path / "slow.json"
        write_bench_record(base, _timed_record("base", {"a": 0.1, "b": 0.2}))
        write_bench_record(slow, _timed_record("curr", {"a": 0.1, "b": 0.4}))

        assert main(["bench", "check", str(base), "--baseline", str(base)]) == 0
        assert "no regressions" in capsys.readouterr().out

        assert main(["bench", "check", str(slow), "--baseline", str(base)]) == 1
        assert "[FAIL] b:" in capsys.readouterr().out

    def test_bench_check_incomparable_exits_2(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        other = tmp_path / "other.json"
        write_bench_record(base, _timed_record("base", {"a": 0.1}))
        write_bench_record(other, _timed_record("curr", {"b": 0.1}))
        assert main(["bench", "check", str(other), "--baseline", str(base)]) == 2
        assert "share no workload ids" in capsys.readouterr().out

    def test_bench_check_missing_baseline_exits_2(self, tmp_path, capsys):
        current = tmp_path / "c.json"
        write_bench_record(current, _record())
        code = main(
            ["bench", "check", str(current), "--baseline", str(tmp_path / "no.json")]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err
