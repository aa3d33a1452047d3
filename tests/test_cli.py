"""Tests for the ``python -m repro`` command-line entry point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.__main__ import main
from repro.scenarios import get_scenario, scenario_run_key
from repro.store import ResultStore


class TestList:
    def test_lists_experiments_and_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig18" in out
        assert "ext-sweep" in out
        assert "town-multilateration" in out
        assert "experiments (" in out and "scenarios (" in out

    def test_closed_stdout_pipe_exits_quietly(self):
        """``repro list | head -3``: the reader is gone before the
        output is written.  Handing the child a pipe whose read end is
        already closed makes that happen on every run."""
        result = _run_into_closed_pipe(["list"])
        assert result.stderr == ""
        assert result.returncode == 1


def _run_into_closed_pipe(argv):
    """Run ``python -m repro *argv*`` with stdout a pipe whose read end
    is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parent.parent)},
        )
    finally:
        os.close(write_end)


class TestRun:
    def test_run_experiment_by_id(self, capsys):
        assert main(["run", "fig11", "--seed", "2005"]) == 0
        out = capsys.readouterr().out
        assert "[fig11]" in out and "PASS" in out

    def test_run_scenario_with_store(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "uniform-multilateration",
                "--seed",
                "1",
                "--trials",
                "2",
                "--store",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario: uniform-multilateration" in out
        assert "2 trials" in out
        assert "misses=1" in out
        # warm re-run hits the cache
        assert (
            main(
                [
                    "run",
                    "uniform-multilateration",
                    "--seed",
                    "1",
                    "--trials",
                    "2",
                    "--store",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert "hits=1" in capsys.readouterr().out

    def test_run_scenario_no_store(self, capsys):
        assert (
            main(
                ["run", "uniform-multilateration", "--trials", "2", "--no-store"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "store:" not in out

    def test_run_scenario_adaptive(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "uniform-multilateration",
                "--trials",
                "10",
                "--adaptive",
                "--tolerance",
                "1e9",
                "--store",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "scheduler:" in capsys.readouterr().out

    def test_no_cache_flag_recomputes(self, tmp_path, capsys):
        args = [
            "run",
            "uniform-multilateration",
            "--trials",
            "2",
            "--store",
            str(tmp_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--no-cache"]) == 0
        assert "hits=0" in capsys.readouterr().out

    def test_unknown_id_exits_2(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown id" in capsys.readouterr().err


class TestExperimentFlagValidation:
    """Regression: scenario-only flags used to be silently ignored for
    experiment ids; they now exit with a clear usage error."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "4"],
            ["--trials", "8"],
            ["--adaptive"],
            ["--no-store"],
            ["--no-cache"],
            ["--metric", "median_error_m"],
            ["--tolerance", "0.5"],
            ["--shard", "1/2"],
            ["--workers", "4", "--adaptive"],
        ],
    )
    def test_scenario_only_flags_rejected_for_experiments(self, capsys, flags):
        assert main(["run", "fig11", *flags]) == 2
        err = capsys.readouterr().err
        assert "experiment id" in err
        assert flags[0] in err

    def test_store_flag_rejected_for_experiments(self, tmp_path, capsys):
        assert main(["run", "fig11", "--store", str(tmp_path)]) == 2
        assert "--store" in capsys.readouterr().err

    def test_seed_alone_still_works(self, capsys):
        assert main(["run", "fig11", "--seed", "2005"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestNoArrayBackendFlag:
    """The array-namespace selector is gone from the CLI: the flag is an
    argparse error and a leftover environment variable is ignored."""

    def test_flag_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "fig11", "--array-backend", "numpy"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --array-backend" in capsys.readouterr().err

    def test_leftover_env_var_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ARRAY_BACKEND", "bogus")
        args = ["run", "uniform-multilateration", "--trials", "2", "--no-store"]
        assert main(args) == 0
        assert "2 trials" in capsys.readouterr().out

    def test_trace_manifest_has_no_backend_field(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        args = [
            "run",
            "uniform-multilateration",
            "--trials",
            "2",
            "--no-store",
            "--trace",
            str(trace),
        ]
        assert main(args) == 0
        capsys.readouterr()
        manifest = json.loads(trace.read_text().splitlines()[0])
        assert "numpy" in manifest
        assert "array_backend" not in manifest


class TestStoreCommands:
    """The `repro store` maintenance group (stats/ls; gc and sync/migrate
    have their own suites in test_store_gc.py / test_store_sync.py)."""

    def _populate(self, path, trials="2"):
        assert (
            main(
                [
                    "run",
                    "uniform-multilateration",
                    "--seed",
                    "1",
                    "--trials",
                    trials,
                    "--store",
                    str(path),
                ]
            )
            == 0
        )

    def test_stats_reports_backend_and_counts(self, tmp_path, capsys):
        self._populate(tmp_path / "store")
        capsys.readouterr()
        assert main(["store", "stats", "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "(filesystem backend)" in out
        assert "entries: 1" in out

    def test_ls_lists_keys_and_sizes(self, tmp_path, capsys):
        self._populate(tmp_path / "store")
        capsys.readouterr()
        assert main(["store", "ls", "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "entries (1," in out
        assert " B" in out

    def test_ls_into_closed_pipe_exits_quietly(self, tmp_path):
        """``repro store ls | head``: the store group's I/O handler must
        let a closed pipe through to ``list``'s quiet exit."""
        self._populate(tmp_path / "store")
        result = _run_into_closed_pipe(["store", "ls", "--store", str(tmp_path / "store")])
        assert result.stderr == ""
        assert result.returncode == 1

    def test_ls_shards_uses_the_shard_index(self, tmp_path, capsys):
        store = str(tmp_path / "store.sqlite")
        code = main(
            [
                "run",
                "uniform-multilateration",
                "--seed",
                "1",
                "--trials",
                "6",
                "--shard",
                "1/3",
                "--store",
                store,
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["store", "ls", "--shards", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "shard entries (1):" in out
        assert "uniform-multilateration" in out and "shard 1/3" in out

    def test_no_store_exits_2(self, capsys):
        assert main(["store", "stats", "--no-store"]) == 2
        assert "store" in capsys.readouterr().err

    def test_ls_negative_limit_exits_2(self, tmp_path, capsys):
        self._populate(tmp_path / "store")
        capsys.readouterr()
        code = main(
            ["store", "ls", "--store", str(tmp_path / "store"), "--limit", "-1"]
        )
        assert code == 2
        assert "--limit" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "ls", "gc"])
    def test_typoed_path_errors_instead_of_creating_a_store(
        self, tmp_path, command, capsys
    ):
        """Read-only inspection on a mistyped path must fail loudly, not
        conjure an empty store and report success against it."""
        typo = tmp_path / "typo.sqlite"
        assert main(["store", command, "--store", str(typo)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not typo.exists()

    def test_stats_reports_shard_count_from_sqlite_index(self, tmp_path, capsys):
        store = str(tmp_path / "store.sqlite")
        code = main(
            [
                "run",
                "uniform-multilateration",
                "--seed",
                "1",
                "--trials",
                "6",
                "--shard",
                "1/3",
                "--store",
                store,
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["store", "stats", "--store", store]) == 0
        assert "shard entries: 1" in capsys.readouterr().out

    def test_scenario_runs_against_sqlite_store(self, tmp_path, capsys):
        """`--store path.sqlite` selects the SQLite backend end to end:
        cold run publishes, warm run is a cache hit."""
        store = str(tmp_path / "cache.sqlite")
        args = [
            "run",
            "uniform-multilateration",
            "--seed",
            "1",
            "--trials",
            "2",
            "--store",
            store,
        ]
        assert main(args) == 0
        assert "misses=1" in capsys.readouterr().out
        assert main(args) == 0
        assert "hits=1" in capsys.readouterr().out


class TestSharding:
    ARGS = ["uniform-multilateration", "--seed", "3", "--trials", "6"]

    def _run_shard(self, tmp_path, k, n):
        return main(
            ["run", *self.ARGS, "--shard", f"{k}/{n}", "--store", str(tmp_path)]
        )

    def test_shard_run_reports_range_and_pending_merge(self, tmp_path, capsys):
        assert self._run_shard(tmp_path, 1, 3) == 0
        out = capsys.readouterr().out
        assert "shard 1/3: trials [0, 2) of 6" in out
        assert "merge: waiting on shards 2/3, 3/3" in out

    def test_last_shard_auto_merges_byte_identical_to_single_host(
        self, tmp_path, capsys
    ):
        sharded = tmp_path / "sharded"
        single = tmp_path / "single"
        for k in (1, 2, 3):
            assert self._run_shard(sharded, k, 3) == 0
        out = capsys.readouterr().out
        assert "merge: all 3 shards present" in out
        assert (
            main(["run", *self.ARGS, "--store", str(single)]) == 0
        )
        spec = get_scenario("uniform-multilateration")
        key = ResultStore(sharded).key_for(
            scenario_run_key(spec, master_seed=3, n_trials=6)
        )
        assert (
            ResultStore(sharded).path_for(key).read_bytes()
            == ResultStore(single).path_for(key).read_bytes()
        )

    def test_merged_entry_serves_plain_run_as_cache_hit(self, tmp_path, capsys):
        for k in (1, 2, 3):
            assert self._run_shard(tmp_path, k, 3) == 0
        capsys.readouterr()
        assert main(["run", *self.ARGS, "--store", str(tmp_path)]) == 0
        assert "hits=1" in capsys.readouterr().out

    def test_explicit_merge_command(self, tmp_path, capsys):
        for k in (1, 2):
            assert self._run_shard(tmp_path, k, 2) == 0
        capsys.readouterr()
        code = main(
            [
                "merge",
                *self.ARGS,
                "--shards",
                "2",
                "--store",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "canonical campaign entry published" in out
        assert "6 trials" in out

    def test_merge_incomplete_exits_1_naming_missing(self, tmp_path, capsys):
        assert self._run_shard(tmp_path, 1, 3) == 0
        capsys.readouterr()
        code = main(
            ["merge", *self.ARGS, "--shards", "3", "--store", str(tmp_path)]
        )
        assert code == 1
        assert "missing shard entries 2/3, 3/3" in capsys.readouterr().err

    def test_merge_of_impossible_split_exits_2(self, tmp_path, capsys):
        """Six shards of four trials cannot exist; `run --shard` refuses
        the split, and `merge` must too rather than call them missing."""
        code = main(
            [
                "merge",
                "uniform-multilateration",
                "--trials",
                "4",
                "--shards",
                "6",
                "--store",
                str(tmp_path),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot split 4 trials into 6 non-empty shards" in err
        assert "missing" not in err

    def test_merge_unknown_or_experiment_id_exits_2(self, tmp_path, capsys):
        assert main(["merge", "nope", "--shards", "2", "--store", str(tmp_path)]) == 2
        assert "unknown scenario id" in capsys.readouterr().err
        assert main(["merge", "fig11", "--shards", "2", "--store", str(tmp_path)]) == 2
        assert "experiment id" in capsys.readouterr().err

    @pytest.mark.parametrize("shard", ["0/3", "4/3", "x/y", "3"])
    def test_malformed_shard_exits_2(self, tmp_path, capsys, shard):
        assert (
            main(
                ["run", *self.ARGS, "--shard", shard, "--store", str(tmp_path)]
            )
            == 2
        )
        assert "shard" in capsys.readouterr().err

    def test_shard_with_adaptive_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "run",
                *self.ARGS,
                "--shard",
                "1/2",
                "--adaptive",
                "--store",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "--adaptive" in capsys.readouterr().err

    def test_more_shards_than_trials_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "uniform-multilateration",
                "--trials",
                "2",
                "--shard",
                "1/3",
                "--store",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "non-empty shards" in capsys.readouterr().err

    def test_shard_without_store_exits_2(self, capsys):
        assert main(["run", *self.ARGS, "--shard", "1/2", "--no-store"]) == 2
        assert "result store" in capsys.readouterr().err

    def test_list_shows_incomplete_sharded_campaigns(self, tmp_path, capsys):
        assert self._run_shard(tmp_path, 2, 3) == 0
        capsys.readouterr()
        assert main(["list", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "incomplete sharded campaigns (1):" in out
        assert "seed=3 trials=6: 1/3 shards present (missing 1/3, 3/3)" in out

    def test_list_hides_complete_campaigns(self, tmp_path, capsys):
        for k in (1, 2):
            assert self._run_shard(tmp_path, k, 2) == 0
        capsys.readouterr()
        assert main(["list", "--store", str(tmp_path)]) == 0
        assert "incomplete sharded campaigns" not in capsys.readouterr().out

    def test_list_reports_complete_but_unmerged_campaigns(self, tmp_path, capsys):
        """All shards present but no canonical entry (interrupted
        auto-merge, or shard entries copied in from per-host stores):
        `list` must point at the merge command, not stay silent."""
        for k in (1, 2):
            assert self._run_shard(tmp_path, k, 2) == 0
        spec = get_scenario("uniform-multilateration")
        store = ResultStore(tmp_path)
        assert store.invalidate(
            store.key_for(scenario_run_key(spec, master_seed=3, n_trials=6))
        )
        assert main(["list", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "all 2 shards present, unmerged" in out
        # The hint must carry every flag the merge needs, verbatim.
        assert "merge uniform-multilateration --seed 3 --trials 6 --shards 2" in out
        assert (
            main(["merge", *self.ARGS, "--shards", "2", "--store", str(tmp_path)])
            == 0
        )
        capsys.readouterr()
        assert main(["list", "--store", str(tmp_path)]) == 0
        assert "unmerged" not in capsys.readouterr().out

    def test_list_does_not_pool_shards_across_code_versions(self, tmp_path):
        """Shards published under a different code version live under
        keys the current merge path can never address; grouping them
        with current-version shards would misreport completeness."""
        from repro.__main__ import _shard_status_lines
        from repro.engine.sharding import ShardSpec
        from repro.scenarios import run_scenario_shard

        spec = get_scenario("uniform-multilateration")
        old = ResultStore(tmp_path, code_version="v-old")
        run_scenario_shard(
            spec, ShardSpec(index=0, n_shards=2), n_trials=4, store=old
        )
        current = ResultStore(tmp_path, code_version="v-new")
        run_scenario_shard(
            spec, ShardSpec(index=1, n_shards=2), n_trials=4, store=current
        )
        lines = _shard_status_lines(current)
        # Two separate 1/2-complete groups, not one falsely complete one.
        assert len(lines) == 2
        assert sum("stale code version v-old" in line for line in lines) == 1
