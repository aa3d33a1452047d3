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


def test_import_loads_no_optimizer():
    """The Nelder-Mead transform fit was ``scipy.optimize``'s only
    importer in the package; it lives in ``tests/_oracles.py`` now."""
    src = Path(repro.__file__).resolve().parent.parent
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro, repro.scenarios; print('scipy.optimize' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


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
        ["repro.engine.backend", "repro.engine.xp_kernels", "repro.engine.trials"],
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
        ],
    )
    def test_removed_name_is_gone(self, module, name):
        mod = importlib.import_module(module)
        assert not hasattr(mod, name)
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
