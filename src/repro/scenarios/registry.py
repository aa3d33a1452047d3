"""Named scenario registry.

Mirrors the experiment registry in :mod:`repro.experiments.base`: every
workload the library ships is registered here by id, so campaigns can be
launched by name (``python -m repro run town-multilateration``), swept
(:func:`repro.scenarios.expand_grid`), and cached by content address.

The built-ins cover the paper's evaluation geometries (the offset grass
grid, the random town) plus the synthetic workload family the scaling
roadmap calls for: density extremes, noise extremes, anchor-starved and
anchor-rich regimes, anchor-free centralized LSS, the distributed-LSS
pipeline (Section 4.3) on towns and grids, the DV-hop baseline, and the
full signal-level acoustic campaigns on several ground covers.
"""

from __future__ import annotations

from typing import Dict

from ..errors import ValidationError
from .spec import AnchorSpec, DeploymentSpec, RangingSpec, ScenarioSpec, SolverSpec

__all__ = ["register_scenario", "get_scenario", "all_scenarios"]

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add *spec* to the registry under its ``scenario_id``."""
    if spec.scenario_id in _REGISTRY:
        raise ValidationError(f"scenario {spec.scenario_id!r} already registered")
    _REGISTRY[spec.scenario_id] = spec
    return spec


def get_scenario(scenario_id: str) -> ScenarioSpec:
    """Look up a scenario by id; raises KeyError listing the known ids."""
    try:
        return _REGISTRY[scenario_id]
    except KeyError:
        raise KeyError(
            f"unknown scenario {scenario_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def all_scenarios() -> Dict[str, ScenarioSpec]:
    """The full id -> spec registry (copy)."""
    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------

#: The ext-campaign workload: Fig. 20's shape as a distribution — uniform
#: random 36-node fields, 10 random anchors, synthetic N(0, 0.33) ranges.
register_scenario(
    ScenarioSpec(
        scenario_id="uniform-multilateration",
        deployment=DeploymentSpec(kind="uniform", n_nodes=36),
        anchors=AnchorSpec(strategy="random", count=10),
        ranging=RangingSpec(model="gaussian", max_range_m=22.0, sigma_m=0.33),
        solver=SolverSpec(algorithm="multilateration"),
        n_trials=12,
    )
)

#: Random street-grid towns, re-randomized per trial (Fig. 20's
#: generator turned into a population).
register_scenario(
    ScenarioSpec(
        scenario_id="town-multilateration",
        deployment=DeploymentSpec(kind="town", n_nodes=59, min_separation_m=6.0),
        anchors=AnchorSpec(strategy="random", count=18),
        ranging=RangingSpec(model="gaussian", max_range_m=22.0, sigma_m=0.33),
        solver=SolverSpec(algorithm="multilateration"),
        n_trials=16,
    )
)

#: Anchor-free centralized LSS on random towns (Fig. 21's shape).
register_scenario(
    ScenarioSpec(
        scenario_id="town-lss",
        deployment=DeploymentSpec(kind="town", n_nodes=25, min_separation_m=6.0),
        anchors=AnchorSpec(strategy="none"),
        ranging=RangingSpec(model="gaussian", max_range_m=22.0, sigma_m=0.33),
        solver=SolverSpec(
            algorithm="lss", min_spacing_m=6.0, restarts=4, max_epochs=800
        ),
        n_trials=8,
    )
)

#: Distributed LSS on random street-grid towns (Section 4.3 run as a
#: population): per-node local maps through the engine's stacked
#: kernels, stitched with batched rigid transforms, flooded from the
#: node nearest the deployment centroid.
register_scenario(
    ScenarioSpec(
        scenario_id="town-distributed-lss",
        deployment=DeploymentSpec(kind="town", n_nodes=49, min_separation_m=6.0),
        anchors=AnchorSpec(strategy="none"),
        ranging=RangingSpec(model="gaussian", max_range_m=22.0, sigma_m=0.33),
        solver=SolverSpec(
            algorithm="distributed-lss", min_spacing_m=6.0, restarts=3, max_epochs=400
        ),
        n_trials=8,
    )
)

#: The distributed pipeline's easy regime: a regular grid dense enough
#: that every local map is well-conditioned (the Fig. 25 recovery
#: story, synthetic-range edition).
register_scenario(
    ScenarioSpec(
        scenario_id="grid-distributed-lss",
        deployment=DeploymentSpec(kind="grid", n_nodes=36, spacing_m=10.0),
        anchors=AnchorSpec(strategy="none"),
        ranging=RangingSpec(model="gaussian", max_range_m=16.0, sigma_m=0.33),
        solver=SolverSpec(
            algorithm="distributed-lss", min_spacing_m=10.0, restarts=3, max_epochs=400
        ),
        n_trials=8,
    )
)

#: Anchor-starved sparse regime: short radio range, few anchors — the
#: Fig. 14 failure mode as a population statistic.
register_scenario(
    ScenarioSpec(
        scenario_id="uniform-sparse-multilateration",
        deployment=DeploymentSpec(kind="uniform", n_nodes=36),
        anchors=AnchorSpec(strategy="random", fraction=0.1),
        ranging=RangingSpec(model="gaussian", max_range_m=14.0, sigma_m=0.33),
        solver=SolverSpec(algorithm="multilateration"),
        n_trials=16,
    )
)

#: Anchor-rich dense regime: the easy end of the coverage spectrum.
register_scenario(
    ScenarioSpec(
        scenario_id="uniform-dense-multilateration",
        deployment=DeploymentSpec(kind="uniform", n_nodes=64, width_m=70.0, height_m=70.0),
        anchors=AnchorSpec(strategy="random", fraction=0.3),
        ranging=RangingSpec(model="gaussian", max_range_m=22.0, sigma_m=0.33),
        solver=SolverSpec(algorithm="multilateration"),
        n_trials=12,
    )
)

#: High measurement noise (3x the paper's sigma): accuracy stress test.
register_scenario(
    ScenarioSpec(
        scenario_id="uniform-noisy-multilateration",
        deployment=DeploymentSpec(kind="uniform", n_nodes=36),
        anchors=AnchorSpec(strategy="random", fraction=0.25),
        ranging=RangingSpec(model="gaussian", max_range_m=22.0, sigma_m=1.0),
        solver=SolverSpec(algorithm="multilateration"),
        n_trials=16,
    )
)

#: The paper's offset grass grid with spread anchors and clean synthetic
#: ranges — the Fig. 16 recovery regime.
register_scenario(
    ScenarioSpec(
        scenario_id="paper-grid-multilateration",
        deployment=DeploymentSpec(kind="paper-grid", n_nodes=47),
        anchors=AnchorSpec(strategy="spread", count=13),
        ranging=RangingSpec(model="gaussian", max_range_m=22.0, sigma_m=0.33),
        solver=SolverSpec(algorithm="multilateration"),
        n_trials=8,
    )
)

#: DV-hop baseline on uniform fields (Section 2's APS family).
register_scenario(
    ScenarioSpec(
        scenario_id="uniform-dv-hop",
        deployment=DeploymentSpec(kind="uniform", n_nodes=36),
        anchors=AnchorSpec(strategy="random", count=8),
        ranging=RangingSpec(model="gaussian", max_range_m=14.0, sigma_m=0.33),
        solver=SolverSpec(algorithm="dv-hop"),
        n_trials=12,
    )
)

#: Full signal-level acoustic ranging campaign on a small grass grid —
#: the heavyweight end-to-end workload the store exists to memoize.
register_scenario(
    ScenarioSpec(
        scenario_id="acoustic-grass-grid",
        deployment=DeploymentSpec(kind="grid", n_nodes=16, spacing_m=8.0),
        anchors=AnchorSpec(strategy="spread", count=5),
        ranging=RangingSpec(model="acoustic", environment="grass", max_range_m=25.0, rounds=3),
        solver=SolverSpec(algorithm="multilateration"),
        n_trials=4,
    )
)

#: The same acoustic campaign on the reverberant urban preset: echoes
#: and a higher noise floor instead of grass's heavy attenuation.
register_scenario(
    ScenarioSpec(
        scenario_id="acoustic-urban-grid",
        deployment=DeploymentSpec(kind="grid", n_nodes=16, spacing_m=8.0),
        anchors=AnchorSpec(strategy="spread", count=5),
        ranging=RangingSpec(model="acoustic", environment="urban", max_range_m=25.0, rounds=3),
        solver=SolverSpec(algorithm="multilateration"),
        n_trials=4,
    )
)
