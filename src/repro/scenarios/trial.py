"""The picklable trial function that executes one scenario draw.

:func:`scenario_trial` is the single campaign-contract entry point for
every registered scenario: given a trial ``rng`` and a frozen
:class:`~repro.scenarios.spec.ScenarioSpec`, it draws a fresh deployment,
measures ranges under the spec's noise model, selects anchors, runs the
configured localization algorithm, and returns scalar metrics.  Being a
module-level function whose only argument beyond ``rng`` is a frozen
dataclass, it pickles cleanly and fans out across the
:mod:`multiprocessing` workers of both the fixed-count campaign runner
and the adaptive scheduler.

The draw order (deployment, then ranges, then anchors) is fixed and part
of the reproducibility contract: a scenario's trial stream is a pure
function of the spec and the trial's seed, so cached results stay valid.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .. import telemetry
from ..acoustics import get_environment
from ..core import (
    DistributedConfig,
    EdgeList,
    LssConfig,
    distributed_localize,
    evaluate_localization,
    localize_network,
    lss_localize,
)
from ..core.aps import dv_hop_localize
from ..deploy import (
    boundary_anchors,
    paper_grid,
    parking_lot_layout,
    random_anchors,
    spread_anchors,
    square_grid,
    town_layout,
    uniform_random_layout,
)

# core imports these inside its functions.  Importing them here keeps
# every import out of the trials: no timed trial and no forked worker
# pays for one.
from ..engine import batch, localmaps  # repro-lint: disable=RPL009
from ..errors import DeploymentInfeasibleError, GraphDisconnectedError, InsufficientDataError
from ..ranging import (
    RangingService,
    TdoaConfig,
    gaussian_edges,
    run_campaign,
    triangle_filter,
)
from ..ranging.filtering import confidence_weighted_edges
from .spec import DeploymentSpec, AnchorSpec, RangingSpec, ScenarioSpec

__all__ = ["scenario_trial", "draw_deployment", "draw_ranges", "select_anchors"]


def draw_deployment(spec: DeploymentSpec, rng) -> np.ndarray:
    """Ground-truth node positions for one trial of *spec*."""
    if spec.kind == "uniform":
        return uniform_random_layout(
            spec.n_nodes,
            width_m=spec.width_m,
            height_m=spec.height_m,
            min_separation_m=spec.min_separation_m,
            rng=rng,
        )
    if spec.kind == "grid":
        side = int(round(spec.n_nodes ** 0.5))
        return square_grid(side, side, spacing_m=spec.spacing_m)
    if spec.kind == "paper-grid":
        return paper_grid(spec.n_nodes, rng=rng)
    if spec.kind == "town":
        return town_layout(spec.n_nodes, min_separation_m=spec.min_separation_m, rng=rng)
    if spec.kind == "parking-lot":
        return parking_lot_layout(spec.n_nodes, rng=rng)
    raise AssertionError(f"unreachable deployment kind {spec.kind!r}")


def draw_ranges(spec: RangingSpec, positions, rng) -> EdgeList:
    """Measure inter-node ranges for one trial under *spec*'s model.

    Both models return an :class:`~repro.core.measurements.EdgeList`.
    The Gaussian model draws one normal per eligible pair, in pair
    order, straight into the edge arrays (:func:`gaussian_edges`).  That
    is the draw order of :func:`~repro.ranging.gaussian_ranges` too, so
    both leave the generator in the same state and seeded trials do not
    depend on which one a caller uses.
    """
    if spec.model == "gaussian":
        return gaussian_edges(
            positions, max_range_m=spec.max_range_m, sigma_m=spec.sigma_m, rng=rng
        )
    # Full signal-level acoustic campaign (Section 3): calibrate a
    # ranging service for the environment, run chirp rounds, and keep
    # the triangle-consistent confidence-weighted edges.
    env = get_environment(spec.environment)
    service = RangingService(
        environment=env, tdoa=TdoaConfig(max_range_m=spec.max_range_m)
    ).calibrate(rng=rng)
    raw = run_campaign(positions, service, rounds=spec.rounds, rng=rng)
    return confidence_weighted_edges(triangle_filter(raw))


def select_anchors(spec: AnchorSpec, positions, rng) -> np.ndarray:
    """Anchor node indices for one trial of *spec* (empty for "none")."""
    n_nodes = int(np.asarray(positions).shape[0])
    count = spec.n_anchors(n_nodes)
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if spec.strategy == "random":
        return random_anchors(n_nodes, count, rng=rng)
    if spec.strategy == "spread":
        return spread_anchors(positions, count)
    if spec.strategy == "boundary":
        return boundary_anchors(positions, count)
    raise AssertionError(f"unreachable anchor strategy {spec.strategy!r}")


def _fraction(numerator, denominator) -> float:
    denominator = float(denominator)
    if denominator == 0.0:
        return float("nan")
    return float(numerator) / denominator


def _nan_metrics() -> Dict[str, float]:
    return {
        "fraction_localized": float("nan"),
        "mean_error_m": float("nan"),
        "median_error_m": float("nan"),
    }


def _distributed_lss_trial(positions, ranges, spec: ScenarioSpec, rng) -> Dict[str, float]:
    """One distributed-LSS draw (Section 4.3): local maps, stitch, flood.

    The root is the node nearest the deployment centroid (a stable,
    spec-independent choice mirroring the paper's central root).  Draws
    whose root has no local map, or whose measurement graph cannot
    support the pipeline at all, yield nan metrics so campaigns
    aggregate rather than crash.
    """
    n_nodes = int(positions.shape[0])
    config = DistributedConfig(
        local_lss=LssConfig(
            constraint_weight=spec.solver.constraint_weight,
            max_epochs=spec.solver.max_epochs,
            restarts=spec.solver.restarts,
            perturbation_m=2.0,
        ),
        min_spacing_m=spec.solver.min_spacing_m,
    )
    centroid = positions.mean(axis=0)
    root = int(np.argmin(np.hypot(*(positions - centroid).T)))
    try:
        result = distributed_localize(ranges, n_nodes, root, config=config, rng=rng)
    except (InsufficientDataError, GraphDisconnectedError):
        return {**_nan_metrics(), "n_local_maps": float("nan")}
    metrics = {
        "fraction_localized": _fraction(result.localized.sum(), n_nodes),
        "n_local_maps": float(len(result.local_maps)),
    }
    if result.localized.sum() >= 3:
        report = evaluate_localization(
            result.positions, positions, localized_mask=result.localized, align=True
        )
        metrics["mean_error_m"] = report.average_error
        metrics["median_error_m"] = report.median_error
    else:
        metrics["mean_error_m"] = float("nan")
        metrics["median_error_m"] = float("nan")
    return metrics


def scenario_trial(rng, *, spec: ScenarioSpec) -> Dict[str, float]:
    """One randomized trial of *spec*: deploy, range, localize, score.

    Returns at least ``fraction_localized`` / ``mean_error_m`` /
    ``median_error_m`` (nan on degenerate draws — a deployment the
    placement sampler gives up on, no edges, nothing to localize, too
    few reachable anchors for DV-hop — so campaigns aggregate rather
    than crash), plus algorithm-specific extras.  A deployment given up
    on counts ``trial.failed.deployment-infeasible``.
    """
    try:
        positions = draw_deployment(spec.deployment, rng)
    except DeploymentInfeasibleError:
        telemetry.count("trial.failed.deployment-infeasible")
        return _nan_metrics()
    ranges = draw_ranges(spec.ranging, positions, rng)
    anchor_idx = select_anchors(spec.anchors, positions, rng)
    if len(ranges) == 0:
        return _nan_metrics()
    n_nodes = int(positions.shape[0])
    algorithm = spec.solver.algorithm

    if algorithm == "lss":
        config = LssConfig(
            min_spacing_m=spec.solver.min_spacing_m,
            constraint_weight=spec.solver.constraint_weight,
            restarts=spec.solver.restarts,
            max_epochs=spec.solver.max_epochs,
        )
        result = lss_localize(ranges, n_nodes, config=config, rng=rng)
        report = evaluate_localization(result.positions, positions, align=True)
        return {
            "fraction_localized": 1.0,
            "mean_error_m": report.average_error,
            "median_error_m": report.median_error,
            "final_objective": result.error,
            "epochs_run": float(result.epochs_run),
        }

    if algorithm == "distributed-lss":
        return _distributed_lss_trial(positions, ranges, spec, rng)

    anchor_positions = {int(i): positions[i] for i in anchor_idx}
    if algorithm == "multilateration":
        result = localize_network(ranges, anchor_positions, n_nodes)
    else:  # dv-hop
        try:
            result = dv_hop_localize(ranges, anchor_positions, n_nodes)
        except InsufficientDataError:
            # Fewer than three anchors, or no anchor reaches another:
            # DV-hop cannot calibrate its hop length on this draw.
            return _nan_metrics()
    non_anchor = ~result.is_anchor
    localized = result.localized & non_anchor
    report = evaluate_localization(result.positions[localized], positions[localized])
    metrics = {
        "fraction_localized": _fraction(localized.sum(), non_anchor.sum()),
        "mean_error_m": report.average_error,
        "median_error_m": report.median_error,
    }
    if algorithm == "multilateration":
        metrics["average_anchors_per_node"] = result.average_anchors_per_node
    return metrics
