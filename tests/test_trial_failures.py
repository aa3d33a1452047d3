"""Every NaN trial leaves ``scenario_trial`` through one exit and is
counted under exactly one ``trial.failed.<class>`` counter.

Each class has a spec and trial seed that reach it deterministically;
the metric dicts are the ones the trial returned before the failure
exit existed, so the exit moves no returned value.
"""

from __future__ import annotations

import ast
import inspect
import math

import numpy as np
import pytest

from repro import telemetry
from repro.scenarios import all_scenarios, get_scenario, run_scenario
from repro.scenarios import trial as trial_module
from repro.scenarios.trial import FAILURE_CLASSES, scenario_trial

NAN = float("nan")

_SMALL_FIELD = {
    "deployment.kind": "uniform",
    "deployment.width_m": 30.0,
    "deployment.height_m": 30.0,
    "deployment.min_separation_m": 2.0,
}
_SHORT_DLSS = {"solver.max_epochs": 50, "solver.restarts": 1}

#: (class, base scenario, overrides, trial seed, returned metrics)
CASES = [
    (
        "deployment-infeasible",
        "uniform-multilateration",
        {"deployment.kind": "parking-lot", "deployment.n_nodes": 45},
        0,
        {"fraction_localized": NAN, "mean_error_m": NAN, "median_error_m": NAN},
    ),
    # 2 m apart at least, and nothing ranges past 1 m.
    (
        "no-edges",
        "uniform-multilateration",
        {**_SMALL_FIELD, "deployment.n_nodes": 4, "ranging.max_range_m": 1.0},
        0,
        {"fraction_localized": NAN, "mean_error_m": NAN, "median_error_m": NAN},
    ),
    (
        "root-unmapped",
        "grid-distributed-lss",
        {
            **_SMALL_FIELD,
            **_SHORT_DLSS,
            "deployment.n_nodes": 4,
            "ranging.max_range_m": 8.0,
        },
        2,
        {
            "fraction_localized": NAN,
            "mean_error_m": NAN,
            "median_error_m": NAN,
            "n_local_maps": NAN,
        },
    ),
    (
        "too-few-localized",
        "grid-distributed-lss",
        {
            **_SMALL_FIELD,
            **_SHORT_DLSS,
            "deployment.n_nodes": 6,
            "deployment.width_m": 60.0,
            "deployment.height_m": 60.0,
            "ranging.max_range_m": 22.0,
        },
        2,
        {
            "fraction_localized": 1.0 / 6.0,
            "mean_error_m": NAN,
            "median_error_m": NAN,
            "n_local_maps": 1.0,
        },
    ),
    (
        "too-few-anchors",
        "uniform-dv-hop",
        {"anchors.count": 2},
        0,
        {"fraction_localized": NAN, "mean_error_m": NAN, "median_error_m": NAN},
    ),
    (
        "no-unknowns",
        "uniform-multilateration",
        {"anchors.count": 1000},
        0,
        {
            "fraction_localized": NAN,
            "mean_error_m": NAN,
            "median_error_m": NAN,
            "average_anchors_per_node": 0.0,
        },
    ),
    # One anchor: no node can hear the three a position needs.
    (
        "none-localized",
        "uniform-multilateration",
        {"anchors.count": 1},
        0,
        {
            "fraction_localized": 0.0,
            "mean_error_m": NAN,
            "median_error_m": NAN,
            "average_anchors_per_node": 0.11428571428571428,
        },
    ),
    (
        "no-unknowns",
        "uniform-dv-hop",
        {"anchors.count": 1000},
        0,
        {"fraction_localized": NAN, "mean_error_m": NAN, "median_error_m": NAN},
    ),
]


def _same(a: dict, b: dict) -> bool:
    """Equal keys and values, NaN equal to NaN."""
    return a.keys() == b.keys() and all(
        (math.isnan(a[k]) and math.isnan(b[k])) or a[k] == b[k] for k in a
    )


def _failures(recorder) -> dict:
    return {
        name: value
        for name, value in recorder.counters.items()
        if name.startswith("trial.failed.")
    }


def test_every_class_has_a_case():
    assert {case[0] for case in CASES} == set(FAILURE_CLASSES)


@pytest.mark.parametrize(
    "cls, scenario_id, overrides, seed, expected",
    CASES,
    ids=[f"{case[0]}-{case[1]}" for case in CASES],
)
def test_class_is_counted_once_with_todays_metrics(
    cls, scenario_id, overrides, seed, expected
):
    spec = get_scenario(scenario_id).with_overrides(**overrides)
    with telemetry.recording() as recorder:
        metrics = scenario_trial(np.random.default_rng(seed), spec=spec)
    assert _failures(recorder) == {f"trial.failed.{cls}": 1}
    assert _same(metrics, expected), metrics


@pytest.mark.slow
@pytest.mark.parametrize("scenario_id", sorted(all_scenarios()))
def test_failure_counters_sum_to_nan_trials(scenario_id):
    with telemetry.recording() as recorder:
        result = run_scenario(
            get_scenario(scenario_id), master_seed=0, n_trials=16, store=None
        )
    assert sum(_failures(recorder).values()) == result.n_nan_trials


def test_one_exit_in_structure():
    """One ``except TrialFailure`` and one counter call in the module."""
    tree = ast.parse(inspect.getsource(trial_module))
    handlers = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and isinstance(node.type, ast.Name)
        and node.type.id == "TrialFailure"
    ]
    counts = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "count"
    ]
    assert len(handlers) == 1 and len(counts) == 1
