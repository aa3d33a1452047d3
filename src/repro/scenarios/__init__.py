"""repro.scenarios — the declarative workload layer.

Scenarios describe *what* to simulate (deployment geometry, anchor
selection, ranging noise model, localization algorithm) as frozen,
canonically hashable dataclasses, decoupled from *how* campaigns execute
(:mod:`repro.engine`) and *where* results are remembered
(:mod:`repro.store`).  The registry names the built-in workload family;
:func:`expand_grid` turns one base spec into a parameter sweep; and
:func:`run_scenario` executes any spec through the campaign runner or
the early-stopping scheduler, memoized by content address.
"""

from .registry import all_scenarios, get_scenario, register_scenario
from .runner import (
    merge_scenario_shards,
    run_scenario,
    run_scenario_shard,
    scenario_run_key,
    scenario_shard_key,
    scenario_shard_status,
)
from .spec import (
    AnchorSpec,
    DeploymentSpec,
    RangingSpec,
    ScenarioSpec,
    SolverSpec,
    expand_grid,
)
from .trial import draw_deployment, draw_ranges, scenario_trial, select_anchors

__all__ = [
    "AnchorSpec",
    "DeploymentSpec",
    "RangingSpec",
    "ScenarioSpec",
    "SolverSpec",
    "expand_grid",
    "register_scenario",
    "get_scenario",
    "all_scenarios",
    "scenario_trial",
    "draw_deployment",
    "draw_ranges",
    "select_anchors",
    "run_scenario",
    "run_scenario_shard",
    "scenario_run_key",
    "scenario_shard_key",
    "scenario_shard_status",
    "merge_scenario_shards",
]
