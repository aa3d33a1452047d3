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

from itertools import chain

from .._lazy import lazy_surface
from .registry import all_scenarios, get_scenario, register_scenario
from .spec import (
    AnchorSpec,
    DeploymentSpec,
    RangingSpec,
    ScenarioSpec,
    SolverSpec,
    expand_grid,
)

# Specs and the registry are eager; the trial and the campaign runner,
# which between them import everything a trial reaches, load on first
# use.
_EXPORTS = {
    ".trial": ("scenario_trial", "draw_deployment", "draw_ranges", "select_anchors"),
    ".runner": (
        "run_scenario",
        "run_scenario_shard",
        "scenario_run_key",
        "scenario_shard_key",
        "scenario_shard_status",
        "merge_scenario_shards",
    ),
}
__getattr__, __dir__ = lazy_surface(globals(), ("runner", "trial"), _EXPORTS)

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
    *chain.from_iterable(_EXPORTS.values()),
]
