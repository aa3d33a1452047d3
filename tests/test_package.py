"""Public-API surface tests."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ValidationError
from repro.perf import make_bench_record, make_workload_result, write_bench_record
from repro.store import ResultStore
from repro.telemetry import TraceRecorder


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__ == "1.1.0"

    def test_subpackages_exposed(self):
        for name in (
            "acoustics",
            "core",
            "deploy",
            "engine",
            "network",
            "ranging",
            "scenarios",
            "store",
        ):
            assert hasattr(repro, name)

    def test_convenience_reexports(self):
        for name in (
            "MeasurementSet",
            "EdgeList",
            "LssConfig",
            "lss_localize",
            "multilaterate",
            "localize_network",
            "distributed_localize",
            "evaluate_localization",
            "RangingService",
            "gaussian_ranges",
            "run_campaign",
        ):
            assert hasattr(repro, name), name

    def test_all_entries_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_exceptions_exposed(self):
        assert issubclass(repro.ValidationError, repro.ReproError)


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.acoustics",
        "repro.network",
        "repro.ranging",
        "repro.deploy",
        "repro.engine",
        "repro.experiments",
    ],
)
def test_subpackage_all_resolvable(module):
    mod = importlib.import_module(module)
    assert hasattr(mod, "__all__")
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name}"


def test_quickstart_docstring_example_runs():
    """The quickstart in the package docstring must actually work."""
    from repro import core, deploy, ranging

    positions = deploy.paper_grid(47)
    ranges = ranging.gaussian_ranges(positions, max_range_m=22.0, sigma_m=0.33, rng=7)
    result = core.lss_localize(
        ranges,
        len(positions),
        config=core.LssConfig(min_spacing_m=9.0, restarts=4),
        rng=7,
    )
    report = core.evaluate_localization(result.positions, positions, align=True)
    assert report.average_error < 2.0


def _fresh_interpreter(code: str) -> str:
    """Standard output of *code* run in a new interpreter on this tree."""
    src = Path(repro.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


_LOADED_SCIPY = "any(name.split('.')[0] == 'scipy' for name in sys.modules)"


def test_import_loads_no_scipy():
    """scipy loads only inside the calls that need it: the baselines'
    shortest-path search and the adaptive scheduler's z-value."""
    code = f"import sys, repro, repro.scenarios; print({_LOADED_SCIPY})"
    assert _fresh_interpreter(code) == "False"


def test_trials_import_nothing_but_the_dv_hop_search():
    """A trial of every registered scenario imports no module, so no
    timed trial and no forked sweep worker pays for an import; only
    ``uniform-dv-hop``'s shortest-path search loads scipy."""
    code = f"""
import sys
import numpy as np
from repro.scenarios import all_scenarios, scenario_trial
specs = all_scenarios()
for scenario_id, spec in specs.items():
    if scenario_id != "uniform-dv-hop":
        rng = np.random.default_rng(0)
        loaded = set(sys.modules)
        scenario_trial(rng, spec=spec)
        assert set(sys.modules) == loaded, (scenario_id, sorted(set(sys.modules) - loaded))
scenario_trial(np.random.default_rng(0), spec=specs["uniform-dv-hop"])
print({_LOADED_SCIPY})
"""
    assert _fresh_interpreter(code) == "True"


class TestSingleNumpyKernelSurface:
    """Each batched kernel has one NumPy body: no array-namespace
    selector survives in a signature, a module or an export."""

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.engine", "batch_gradient_descent"),
            ("repro.engine", "batch_lss_descend"),
            ("repro.engine", "batch_lss_descend_padded"),
            ("repro.engine", "batch_lss_error"),
            ("repro.engine", "batch_lss_error_padded"),
            ("repro.engine", "batch_lss_gradient"),
            ("repro.engine", "batch_lss_gradient_padded"),
            ("repro.engine", "lss_localize_multistart"),
            ("repro.engine", "solve_multilateration_batch"),
            ("repro.engine", "solve_local_lss_stack"),
            ("repro.core.transforms", "estimate_transforms_closed_form_batch"),
        ],
    )
    def test_kernel_takes_no_backend_argument(self, module, name):
        fn = getattr(importlib.import_module(module), name)
        assert "backend" not in inspect.signature(fn).parameters

    @pytest.mark.parametrize(
        "module",
        [
            "repro.engine.backend",
            "repro.engine.xp_kernels",
            "repro.engine.trials",
            "repro.ranging.constraints",
            "repro.network.flooding",
        ],
    )
    def test_deleted_module_is_not_importable(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_engine_exports_no_backend_selection(self):
        import repro.engine as engine

        for name in (
            "available_backends",
            "default_backend_name",
            "get_backend",
            "resolve_backend",
            "set_default_backend",
            "use_backend",
        ):
            assert not hasattr(engine, name), name
            assert name not in engine.__all__


class TestSingleSolverSurface:
    """LSS has one solver (gradient descent) and map stitching one
    transform estimator (the closed form): no selector survives.  The
    reference implementations still import, as test oracles."""

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("LssConfig", {"backend": "gd"}),
            ("DistributedConfig", {"transform_method": "closed_form"}),
            ("DistributedConfig", {"solver": "scalar"}),
        ],
    )
    def test_removed_config_field(self, name, kwargs):
        import repro.core as core

        with pytest.raises(TypeError):
            getattr(core, name)(**kwargs)

    def test_align_to_reference_takes_no_method(self):
        from repro.core import align_to_reference

        square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        with pytest.raises(TypeError):
            align_to_reference(square, square, method="closed_form")

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.core", "estimate_transform"),
            ("repro.core.transforms", "estimate_transform"),
            ("repro.core.transforms", "estimate_transforms_minimize_batch"),
            ("repro.core.lss", "_lbfgs_round"),
            ("repro.core.lss", "_descend"),
            ("repro.core.lss", "_descend_scalar"),
            ("repro.engine", "consistency_filter_fast"),
            ("repro.engine.batch", "consistency_filter_fast"),
            ("repro.core.multilateration", "_solve_batch_scalar"),
            ("repro.core", "estimate_transform_minimize"),
            ("repro.core.transforms", "estimate_transform_minimize"),
            ("repro.core.distributed", "_solve_local_maps_scalar"),
            ("repro.core.distributed", "_mds_initial"),
            ("repro.core.distributed", "_trim_local_edges"),
            ("repro.core.distributed", "_as_edges"),
            ("repro.core.aps", "_edges_of"),
            ("repro.core.aps", "_check_anchors"),
            ("repro.core.lss", "_prepare_edges"),
            ("repro.core.lss", "_trim_mask"),
            ("repro._validation", "check_index_pairs"),
            ("repro.ranging", "first_hit"),
            ("repro.ranging.detection", "first_hit"),
            ("repro.ranging.link", "AcousticLinkSimulator.link_snr_db"),
            ("repro.ranging", "min_spacing_filter"),
            ("repro.ranging", "feasible_distance_filter"),
            ("repro.ranging", "grid_distance_set"),
            ("repro.ranging", "StatisticalErrorModel"),
            ("repro.ranging", "statistical_campaign"),
            ("repro.ranging.synthetic", "StatisticalErrorModel"),
            ("repro.ranging.synthetic", "statistical_campaign"),
            ("repro.ranging", "mode_filter"),
            ("repro.ranging", "statistical_filter"),
            ("repro.ranging.filtering", "mode_filter"),
            ("repro.ranging.filtering", "statistical_filter"),
            ("repro.ranging", "accumulate_chirps"),
            ("repro.ranging", "detect_all_windows"),
            ("repro.ranging.detection", "accumulate_chirps"),
            ("repro.ranging.detection", "detect_all_windows"),
            ("repro.ranging", "consistency_pipeline"),
            ("repro.ranging.consistency", "consistency_pipeline"),
            ("repro.ranging", "tdoa_distance"),
            ("repro.ranging.tdoa", "tdoa_distance"),
            ("repro.core", "euclidean"),
            ("repro.core", "distances_for_pairs"),
            ("repro.core", "invert_transform"),
            ("repro.core", "decompose_transform"),
            ("repro.core", "triangle_inequality_holds"),
            ("repro.core.geometry", "euclidean"),
            ("repro.core.geometry", "distances_for_pairs"),
            ("repro.core.geometry", "invert_transform"),
            ("repro.core.geometry", "decompose_transform"),
            ("repro.core.geometry", "triangle_inequality_holds"),
            ("repro.network", "flood"),
            ("repro.network", "FloodResult"),
            ("repro.network", "FtspSyncModel"),
            ("repro.network.clock", "FtspSyncModel"),
            ("repro.acoustics", "propagation_delay_s"),
            ("repro.acoustics.propagation", "propagation_delay_s"),
            ("repro.scenarios", "run_scenario_by_id"),
            ("repro.scenarios.runner", "run_scenario_by_id"),
            ("repro.perf", "all_suites"),
            ("repro.perf.suites", "all_suites"),
            ("repro", "ConvergenceError"),
            ("repro.errors", "ConvergenceError"),
        ],
    )
    def test_removed_name_is_gone(self, module, name):
        """*name* may be dotted: a method of a class of *module*."""
        mod = importlib.import_module(module)
        *path, attr = name.split(".")
        owner = mod
        for part in path:
            owner = getattr(owner, part)
        assert not hasattr(owner, attr)
        assert name not in getattr(mod, "__all__", ())

    @pytest.mark.parametrize(
        "module, name",
        [
            ("_oracles", "descend_scalar"),
            ("_oracles", "scalar_round"),
            ("_oracles", "estimate_transform_minimize"),
            ("_oracles", "solve_batch_scalar"),
            ("_oracles", "solve_local_maps_scalar"),
            ("_oracles", "mds_initial"),
            ("_acoustic_oracle", "simulate_counts"),
            ("_acoustic_oracle", "detect_signal"),
            ("_acoustic_oracle", "first_hit"),
            ("_acoustic_oracle", "link_snr_db"),
        ],
    )
    def test_oracle_still_imports(self, module, name):
        assert callable(getattr(importlib.import_module(module), name))


class TestOneMultilaterationSolver:
    """Multilateration and the APS baselines have one solver, the
    paper's gradient descent: the Levenberg-Marquardt path is gone."""

    ANCHORS = [[0.0, 0.0], [20.0, 0.0], [0.0, 20.0], [20.0, 20.0]]

    @pytest.mark.parametrize("solver", ["gradient", "scalar", "lm"])
    def test_multilaterate_takes_no_solver(self, solver):
        from repro.core import multilaterate

        with pytest.raises(TypeError):
            multilaterate(self.ANCHORS, [10.0, 10.0, 10.0, 10.0], solver=solver)

    def test_multilateration_imports_no_optimizer(self):
        module = importlib.import_module("repro.core.multilateration")
        assert not hasattr(module, "least_squares")


class TestNoSolverSelector:
    """Every localization algorithm has one production path: nothing
    selects the scalar references, which survive as test oracles
    (``TestSingleSolverSurface.test_oracle_still_imports``)."""

    @pytest.mark.parametrize(
        "localizer", ["localize_network", "dv_hop_localize", "dv_distance_localize"]
    )
    @pytest.mark.parametrize("solver", ["gradient", "scalar", "lm"])
    def test_localizer_takes_no_solver(self, localizer, solver):
        import repro.core as core
        from repro.core.measurements import EdgeList

        edges = EdgeList(
            pairs=np.array([[0, 3], [1, 3], [2, 3], [0, 1]]),
            distances=np.array([14.0, 14.0, 14.0, 20.0]),
            weights=np.ones(4),
        )
        anchors = {0: [0.0, 0.0], 1: [20.0, 0.0], 2: [0.0, 20.0]}
        with pytest.raises(TypeError):
            getattr(core, localizer)(edges, anchors, 4, solver=solver)

    @pytest.mark.parametrize("backend", ["gradient", "batched", "scalar", "lm"])
    def test_solver_spec_takes_no_backend(self, backend):
        from repro.scenarios import SolverSpec

        with pytest.raises(TypeError):
            SolverSpec(algorithm="dv-hop", backend=backend)

    def test_canonical_solver_has_no_backend(self):
        from repro.scenarios import all_scenarios

        for spec in all_scenarios().values():
            assert "backend" not in spec.canonical()["solver"]

    def test_ext_distributed_not_registered(self):
        import repro.experiments as experiments

        assert "ext-distributed" not in experiments.all_experiments()
        assert not hasattr(experiments, "ext_distributed_batched")


# -- lazy package surfaces ------------------------------------------------

_SIMULATOR = ("acoustics", "core", "deploy", "engine", "network", "ranging")


def _loaded_under(subpackages) -> str:
    """Code printing the sorted modules loaded under repro.<subpackages>."""
    heads = [["repro", name] for name in subpackages]
    return f"sorted(m for m in sys.modules if m.split('.')[:2] in {heads!r})"


def test_spec_layer_imports_no_simulator():
    """``import repro.scenarios`` and a registry lookup load the spec
    layer only: no simulator, store or telemetry module, no
    multiprocessing and no sqlite3."""
    code = f"""
import sys
import repro, repro.scenarios
repro.scenarios.get_scenario("town-distributed-lss")
print({_loaded_under(_SIMULATOR + ("store", "telemetry"))})
print(sorted(m for m in ("multiprocessing", "sqlite3") if m in sys.modules))
"""
    assert _fresh_interpreter(code) == "[]\n[]"


def test_spec_layer_loads_at_most_eight_repro_modules():
    code = """
import sys
import numpy
before = set(sys.modules)
import repro.scenarios
print(*sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'repro'))
"""
    loaded = _fresh_interpreter(code).split()
    assert len(loaded) <= 8, loaded


def _bench_records(tmp_path) -> None:
    """A bench record at ``a.json`` and the same record at ``b.json``."""
    timings = make_workload_result(workload_id="w", kind="scenario", timings_s=[0.1] * 3)
    record = make_bench_record("cli", [timings], now=0.0)
    for name in ("a.json", "b.json"):
        write_bench_record(tmp_path / name, record)


def _store(tmp_path) -> None:
    store = ResultStore(tmp_path / "store")
    store.put(store.key_for("cli"), {"value": 1})


def _trace(tmp_path) -> None:
    recorder = TraceRecorder()
    with recorder.span("scenario"):
        recorder.count("engine.campaign.trials")
    recorder.write(tmp_path / "t.jsonl", now=0.0)


@pytest.mark.parametrize(
    "argv, setup",
    [
        (["lint"], None),
        (["--help"], None),
        (["store", "stats", "--store", "{tmp}/store"], _store),
        (["bench", "check", "{tmp}/a.json", "--baseline", "{tmp}/b.json"], _bench_records),
        (["trace", "summarize", "{tmp}/t.jsonl"], _trace),
    ],
    ids=["lint", "help", "store", "bench-check", "trace"],
)
def test_cli_commands_import_no_simulator(argv, setup, tmp_path):
    """``python -m repro`` imports per subcommand: the commands that do
    not simulate run to a zero exit and load no simulator module."""
    if setup is not None:
        setup(tmp_path)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = f"""
import contextlib, io, sys
from repro.__main__ import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        status = main({argv!r})
    except SystemExit as exc:
        status = exc.code
print(status, {_loaded_under(_SIMULATOR + ("experiments", "scenarios"))})
"""
    assert _fresh_interpreter(code) == "0 []"


_LAZY_PACKAGES = ["repro", "repro.scenarios", "repro.store", "repro.perf"]


@pytest.mark.parametrize("module_name", _LAZY_PACKAGES)
class TestLazySurface:
    """Names a package loads on first use behave as eager ones did."""

    def test_dir_covers_all(self, module_name):
        module = importlib.import_module(module_name)
        assert set(module.__all__) <= set(dir(module))

    def test_star_import_binds_all(self, module_name):
        namespace = {}
        exec(f"from {module_name} import *", namespace)
        module = importlib.import_module(module_name)
        assert set(module.__all__) <= set(namespace)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name

    def test_unknown_name_raises_attribute_error(self, module_name):
        module = importlib.import_module(module_name)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


@pytest.mark.parametrize("package", _LAZY_PACKAGES)
def test_lazy_names_are_the_defining_modules_objects(package):
    """Every ``__all__`` name is the object its defining module exports;
    a subpackage name is the subpackage itself."""
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        if inspect.ismodule(value):
            assert value is importlib.import_module(f"{package}.{name}"), name
        elif inspect.isclass(value) or inspect.isfunction(value):
            defining = importlib.import_module(value.__module__)
            assert getattr(defining, name) is value, name


def test_pooled_campaign_imports_nothing_in_the_parent():
    """Once ``run_scenario`` is imported, a 2-worker campaign imports no
    module in the parent: starting the pool imports nothing either."""
    code = """
import sys
from repro.scenarios import get_scenario, run_scenario
spec = get_scenario("uniform-multilateration")
loaded = set(sys.modules)
run_scenario(spec, master_seed=0, n_trials=4, n_workers=2, store=None)
print(sorted(set(sys.modules) - loaded))
"""
    assert _fresh_interpreter(code) == "[]"
