"""The invariant linter: every rule fires on a minimal bad fixture and
stays quiet on the matching good one, discharges (suppressions,
allowlist) are visible rather than silent, the real ``repro`` tree
lints clean, and the JSON report round-trips for downstream tooling.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.errors import ValidationError
from repro.lint import (
    DEFAULT_ALLOWLIST,
    LINT_SCHEMA_VERSION,
    RULES,
    AllowEntry,
    LintConfig,
    LintReport,
    lint_paths,
    lint_source,
    scope_matches,
    suppressions_for,
)

#: Config with no allowlist: fixture tests must see raw rule behavior.
STRICT = LintConfig(allowlist=())


def codes(report):
    return [finding.code for finding in report.findings]


def check(source, relpath="module.py", config=STRICT):
    return lint_source(source, relpath, config=config)


class TestRegistry:
    def test_ships_the_documented_rules(self):
        assert sorted(RULES) == [f"RPL00{i}" for i in (1, 3, 4, 5, 6, 7, 8, 9)]

    def test_every_rule_has_name_and_summary(self):
        for code, rule in RULES.items():
            assert rule.code == code
            assert rule.name
            assert rule.summary


class TestRPL001GlobalRNG:
    def test_flags_np_random_module_function(self):
        bad = "import numpy as np\nx = np.random.normal(0.0, 1.0)\n"
        assert codes(check(bad)) == ["RPL001"]

    def test_flags_np_random_seed(self):
        bad = "import numpy as np\nnp.random.seed(7)\n"
        assert codes(check(bad)) == ["RPL001"]

    def test_flags_stdlib_random_import(self):
        assert codes(check("import random\nrandom.seed(7)\n")) == ["RPL001"]
        assert codes(check("from random import shuffle\nshuffle([])\n")) == ["RPL001"]

    def test_flags_from_numpy_random_import_of_banned_name(self):
        bad = "from numpy.random import normal\nx = normal()\n"
        assert codes(check(bad)) == ["RPL001"]

    def test_allows_generator_seedsequence_surface(self):
        good = (
            "import numpy as np\n"
            "from numpy.random import SeedSequence, default_rng\n"
            "rng = np.random.default_rng(np.random.SeedSequence(7))\n"
            "other = default_rng(SeedSequence(8))\n"
            "gen = np.random.Generator(np.random.PCG64(3))\n"
        )
        assert codes(check(good)) == []

    def test_resolves_import_alias(self):
        bad = "import numpy\nx = numpy.random.uniform()\n"
        assert codes(check(bad)) == ["RPL001"]


class TestRPL003WallClockEntropy:
    @pytest.mark.parametrize(
        "call",
        [
            "import time\nt = time.time()\n",
            "import time\nt = time.time_ns()\n",
            "import datetime\nd = datetime.datetime.now()\n",
            "import datetime\nd = datetime.date.today()\n",
            "import uuid\nu = uuid.uuid4()\n",
            "import os\nb = os.urandom(8)\n",
            "import secrets\ns = secrets.token_hex(4)\n",
        ],
    )
    def test_flags_wall_clock_and_entropy_calls(self, call):
        assert codes(check(call)) == ["RPL003"]

    def test_perf_counter_durations_stay_legal(self):
        good = (
            "import time\n"
            "t0 = time.perf_counter()\n"
            "t1 = time.process_time()\n"
        )
        assert codes(check(good)) == []

    def test_resolves_from_import_alias(self):
        bad = "from time import time\nt = time()\n"
        assert codes(check(bad)) == ["RPL003"]


class TestRPL004SortedFsIteration:
    def test_flags_unsorted_iterdir_in_store(self):
        bad = (
            "from pathlib import Path\n"
            "def walk(root: Path):\n"
            "    for p in root.iterdir():\n"
            "        yield p\n"
        )
        assert codes(check(bad, "store/backends.py")) == ["RPL004"]

    @pytest.mark.parametrize("call", ["root.glob('*.json')", "root.rglob('*')"])
    def test_flags_unsorted_glob_variants(self, call):
        bad = f"def walk(root):\n    return list({call})\n"
        assert codes(check(bad, "store/x.py")) == ["RPL004"]

    def test_flags_os_listdir(self):
        bad = "import os\nnames = os.listdir('.')\n"
        assert codes(check(bad, "store/x.py")) == ["RPL004"]

    def test_sorted_wrapped_iteration_is_clean(self):
        good = (
            "import os\n"
            "def walk(root):\n"
            "    a = sorted(root.iterdir())\n"
            "    b = sorted(root.glob('*.json'))\n"
            "    c = sorted(os.listdir('.'))\n"
            "    return a, b, c\n"
        )
        assert codes(check(good, "store/x.py")) == []

    def test_rule_is_scoped_to_store(self):
        assert codes(check("x = list(root.iterdir())\n", "engine/x.py")) == []


class TestRPL005PicklablePoolCallables:
    def test_flags_lambda_handed_to_pool_map(self):
        bad = (
            "def run(pool, items):\n"
            "    return pool.map(lambda x: x + 1, items)\n"
        )
        assert codes(check(bad)) == ["RPL005"]

    def test_flags_lambda_bound_name(self):
        bad = (
            "f = lambda x: x + 1\n"
            "def run(pool, items):\n"
            "    return pool.imap(f, items)\n"
        )
        assert codes(check(bad)) == ["RPL005"]

    def test_flags_nested_def_handed_to_dispatch(self):
        bad = (
            "def run(spec):\n"
            "    def trial(i):\n"
            "        return i\n"
            "    return run_monte_carlo(trial, spec)\n"
        )
        assert codes(check(bad)) == ["RPL005"]

    def test_flags_lambda_trial_fn_keyword(self):
        bad = "r = run_adaptive(spec, trial_fn=lambda i: i)\n"
        assert codes(check(bad)) == ["RPL005"]

    def test_module_level_function_is_clean(self):
        good = (
            "def trial(i):\n"
            "    return i\n"
            "def run(pool, items):\n"
            "    return pool.map(trial, items)\n"
        )
        assert codes(check(good)) == []

    def test_ifexp_selecting_module_level_functions_is_clean(self):
        # The scheduler's `mapper = _traced if traced else _plain` idiom.
        good = (
            "def _plain(i):\n"
            "    return i\n"
            "def _traced(i):\n"
            "    return i\n"
            "def run(pool, items, traced):\n"
            "    mapper = _traced if traced else _plain\n"
            "    return pool.imap(mapper, items)\n"
        )
        assert codes(check(good)) == []


class TestRPL006HashExclusionRegistry:
    GOOD = (
        "import dataclasses\n"
        "HASH_EXCLUDED_FIELDS = ('scenario_id', 'solver.array_backend')\n"
        "class ScenarioSpec:\n"
        "    def canonical(self):\n"
        "        payload = dataclasses.asdict(self)\n"
        "        payload.pop('scenario_id')\n"
        "        payload['solver'].pop('array_backend')\n"
        "        return payload\n"
    )

    def test_matching_registry_is_clean(self):
        assert codes(check(self.GOOD, "scenarios/spec.py")) == []

    def test_flags_missing_registry(self):
        bad = self.GOOD.replace(
            "HASH_EXCLUDED_FIELDS = ('scenario_id', 'solver.array_backend')\n", ""
        )
        assert codes(check(bad, "scenarios/spec.py")) == ["RPL006"]

    def test_flags_undeclared_pop(self):
        bad = self.GOOD.replace(
            "HASH_EXCLUDED_FIELDS = ('scenario_id', 'solver.array_backend')",
            "HASH_EXCLUDED_FIELDS = ('scenario_id',)",
        )
        report = check(bad, "scenarios/spec.py")
        assert codes(report) == ["RPL006"]
        assert "solver.array_backend" in report.findings[0].message

    def test_flags_stale_registry_entry(self):
        bad = self.GOOD.replace(
            "        payload['solver'].pop('array_backend')\n", ""
        )
        report = check(bad, "scenarios/spec.py")
        assert codes(report) == ["RPL006"]
        assert "never pops" in report.findings[0].message

    def test_flags_non_literal_pop(self):
        bad = self.GOOD.replace(
            "payload.pop('scenario_id')", "payload.pop(FIELD)"
        )
        report = check(bad, "scenarios/spec.py")
        assert "RPL006" in codes(report)

    def test_other_classes_are_ignored(self):
        other = (
            "class Config:\n"
            "    def canonical(self):\n"
            "        d = {}\n"
            "        d.pop('x')\n"
            "        return d\n"
        )
        assert codes(check(other, "scenarios/spec.py")) == []


class TestRPL007AtomicStoreWrites:
    def test_flags_direct_write_mode_open(self):
        bad = "def put(path, data):\n    open(path, 'w').write(data)\n"
        assert codes(check(bad, "store/x.py")) == ["RPL007"]

    def test_flags_path_write_bytes(self):
        bad = "def put(path, data):\n    path.write_bytes(data)\n"
        assert codes(check(bad, "store/x.py")) == ["RPL007"]

    def test_flags_path_open_write_mode(self):
        bad = "def put(path, data):\n    path.open('w').write(data)\n"
        assert codes(check(bad, "store/x.py")) == ["RPL007"]

    def test_staging_target_then_replace_is_clean(self):
        good = (
            "import os\n"
            "def put(path, tmp, data):\n"
            "    tmp.write_bytes(data)\n"
            "    os.replace(tmp, path)\n"
        )
        assert codes(check(good, "store/x.py")) == []

    def test_backend_dispatch_seam_is_clean(self):
        good = (
            "def put(self, key, data):\n"
            "    return self.backend.write_bytes(key, data)\n"
        )
        assert codes(check(good, "store/x.py")) == []

    def test_read_mode_open_is_clean(self):
        good = "def get(path):\n    return open(path).read()\n"
        assert codes(check(good, "store/x.py")) == []

    def test_rule_is_scoped_to_store(self):
        source = "def put(path, data):\n    path.write_bytes(data)\n"
        assert codes(check(source, "telemetry/x.py")) == []


class TestRPL008EagerTelemetryFormat:
    def test_flags_fstring_metric_name(self):
        bad = (
            "from repro import telemetry\n"
            "def solve(name):\n"
            "    telemetry.count(f'engine.{name}_solves', 1)\n"
        )
        assert codes(check(bad, "engine/batch.py")) == ["RPL008"]

    def test_flags_format_call_and_percent(self):
        bad = (
            "from repro import telemetry\n"
            "def solve(name):\n"
            "    telemetry.observe('engine.{}'.format(name), 1.0)\n"
            "    telemetry.count('engine.%s' % name, 1)\n"
        )
        assert codes(check(bad, "engine/x.py")) == ["RPL008", "RPL008"]

    def test_constant_and_precomputed_names_are_clean(self):
        good = (
            "from repro import telemetry\n"
            "def solve(names):\n"
            "    telemetry.count('engine.batch.gd_solves', 1)\n"
            "    solves, _ = names\n"
            "    telemetry.count(solves, 1)\n"
        )
        assert codes(check(good, "engine/batch.py")) == []

    def test_rule_is_scoped_to_engine(self):
        source = (
            "from repro import telemetry\n"
            "def f(kind):\n"
            "    telemetry.count(f'store.{kind}.hit', 1)\n"
        )
        assert codes(check(source, "store/result_store.py")) == []


class TestRPL009UnusedImports:
    def test_flags_unused_module_and_from_imports(self):
        bad = (
            "import numpy as np\n"
            "import os.path\n"
            "from typing import List, Optional\n"
            "def f(x: Optional[int]) -> int:\n"
            "    return x\n"
        )
        report = check(bad)
        assert codes(report) == ["RPL009", "RPL009", "RPL009"]
        assert [f.line for f in report.findings] == [1, 2, 3]
        for finding, name in zip(report.findings, ("np", "os", "List")):
            assert f"`{name}`" in finding.message

    def test_flags_imports_inside_module_level_if_and_try(self):
        bad = (
            "try:\n"
            "    import json\n"
            "except ImportError:\n"
            "    json = None\n"
            "if True:\n"
            "    from math import pi\n"
        )
        assert codes(check(bad)) == ["RPL009"]

    def test_used_names_are_clean(self):
        good = (
            "from __future__ import annotations\n"
            "import os.path\n"
            "import numpy as np\n"
            "from typing import TYPE_CHECKING, Dict\n"
            "from .core import EdgeList, LssConfig, run\n"
            "__all__ = ['run']\n"
            "def f(d: Dict[str, 'EdgeList']) -> 'Optional[LssConfig]':\n"
            "    return np.asarray(os.path.sep)\n"
            "x: 'TYPE_CHECKING' = 1\n"
        )
        assert codes(check(good)) == []

    def test_function_level_imports_are_not_checked(self):
        good = "def f():\n    import numpy as np\n    return 1\n"
        assert codes(check(good)) == []

    def test_future_and_star_imports_are_exempt(self):
        good = "from __future__ import annotations\nfrom math import *\n"
        assert codes(check(good)) == []


class TestSuppressionsAndAllowlist:
    def test_inline_suppression_moves_finding_to_suppressed(self):
        source = "import random  # repro-lint: disable=RPL001\nrandom.seed(7)\n"
        report = check(source)
        assert report.clean
        assert [finding.code for finding in report.suppressed] == ["RPL001"]

    def test_suppression_is_line_scoped(self):
        source = (
            "import random  # repro-lint: disable=RPL001\n"
            "from random import shuffle\n"
            "shuffle([random.random()])\n"
        )
        report = check(source)
        assert codes(report) == ["RPL001"]
        assert report.findings[0].line == 2

    def test_suppression_comment_parses_multiple_codes(self):
        got = suppressions_for("x = 1  # repro-lint: disable=RPL001, RPL007\n")
        assert got == {1: {"RPL001", "RPL007"}}

    def test_suppressing_one_code_leaves_others(self):
        source = "import time\nt = time.time()  # repro-lint: disable=RPL001\n"
        assert codes(check(source)) == ["RPL003"]

    def test_allowlist_entry_discharges_with_justification(self):
        config = LintConfig(
            allowlist=(
                AllowEntry("RPL003", "store/gc.py", "grace window uses real clock"),
            )
        )
        source = "import time\nt = time.time()\n"
        report = check(source, "store/gc.py", config=config)
        assert report.clean
        assert [finding.code for finding in report.allowed] == ["RPL003"]
        assert report.allowed[0].justification == "grace window uses real clock"

    def test_allowlist_is_scoped_by_path(self):
        config = LintConfig(
            allowlist=(AllowEntry("RPL003", "store/gc.py", "clock"),)
        )
        source = "import time\nt = time.time()\n"
        assert codes(check(source, "store/other.py", config=config)) == ["RPL003"]

    def test_allowlist_is_scoped_by_code(self):
        config = LintConfig(
            allowlist=(AllowEntry("RPL003", "store/gc.py", "clock"),)
        )
        source = "import random\nrandom.seed(7)\n"
        assert codes(check(source, "store/gc.py", config=config)) == ["RPL001"]

    def test_directory_scope_matches_anywhere_in_path(self):
        assert scope_matches("store/", "store/gc.py")
        assert scope_matches("store/", "src/repro/store/gc.py")
        assert not scope_matches("store/", "engine/store_adjacent.py")

    def test_file_scope_is_a_suffix_match(self):
        assert scope_matches("telemetry/manifest.py", "telemetry/manifest.py")
        assert scope_matches(
            "telemetry/manifest.py", "src/repro/telemetry/manifest.py"
        )
        assert not scope_matches("telemetry/manifest.py", "store/manifest.py")

    def test_every_default_allowlist_entry_has_a_justification(self):
        for entry in DEFAULT_ALLOWLIST:
            assert entry.justification, f"{entry.code} {entry.scope} lacks a reason"


class TestRealTree:
    def test_the_shipped_repro_tree_lints_clean(self):
        package_dir = Path(repro.__file__).resolve().parent
        report = lint_paths([package_dir])
        assert report.clean, "\n".join(
            finding.render() for finding in report.findings
        )
        assert report.files_scanned > 50

    def test_the_tree_report_is_deterministic(self):
        package_dir = Path(repro.__file__).resolve().parent
        assert lint_paths([package_dir]) == lint_paths([package_dir])

    def test_known_discharges_are_visible_not_silent(self):
        package_dir = Path(repro.__file__).resolve().parent
        report = lint_paths([package_dir])
        allowed = {(f.path, f.code) for f in report.allowed}
        assert ("telemetry/manifest.py", "RPL003") in allowed
        assert ("store/gc.py", "RPL003") in allowed
        for finding in report.allowed:
            assert finding.justification

    def test_syntax_error_raises_validation_error(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="cannot lint"):
            lint_paths([bad])

    def test_missing_path_raises_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="no such file"):
            lint_paths([tmp_path / "nope.py"])


class TestJsonReport:
    def test_json_report_round_trips(self):
        source = (
            "import random\n"
            "import time  # repro-lint: disable=RPL001\n"
            "t = time.time()\n"
        )
        config = LintConfig(
            allowlist=(AllowEntry("RPL003", "module.py", "declared stamp"),)
        )
        report = check(source, config=config)
        parsed = LintReport.from_json(report.to_json())
        assert parsed == report

    def test_json_carries_schema_and_counts(self):
        report = check("import random\nrandom.seed(7)\n")
        payload = json.loads(report.to_json())
        assert payload["schema"] == LINT_SCHEMA_VERSION
        assert payload["counts"] == {"findings": 1, "suppressed": 0, "allowed": 0}
        assert payload["files_scanned"] == 1
        (finding,) = payload["findings"]
        assert set(finding) == {"path", "line", "col", "code", "message"}

    def test_unknown_schema_version_is_rejected(self):
        payload = json.loads(check("x = 1\n").to_json())
        payload["schema"] = LINT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="unsupported lint report schema"):
            LintReport.from_json(json.dumps(payload))


class TestCli:
    def run_cli(self, argv, capsys):
        from repro.__main__ import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_lint_default_tree_exits_zero(self, capsys):
        code, out, _ = self.run_cli(["lint"], capsys)
        assert code == 0
        assert "repro-lint: 0 finding(s)" in out
        assert "allowlisted" in out

    def test_lint_json_is_parseable_and_clean(self, capsys):
        code, out, _ = self.run_cli(["lint", "--json"], capsys)
        assert code == 0
        report = LintReport.from_json(out)
        assert report.clean
        assert report.files_scanned > 50

    def test_lint_finds_violations_in_explicit_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n", encoding="utf-8")
        code, out, _ = self.run_cli(["lint", str(bad)], capsys)
        assert code == 1
        assert "RPL001" in out

    def test_lint_syntax_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n", encoding="utf-8")
        code, _, err = self.run_cli(["lint", str(bad)], capsys)
        assert code == 2
        assert "cannot lint" in err

    def test_list_rules_prints_registry(self, capsys):
        code, out, _ = self.run_cli(["lint", "--list-rules"], capsys)
        assert code == 0
        for rule_code in RULES:
            assert rule_code in out
