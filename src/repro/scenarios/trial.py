"""The picklable trial function that executes one scenario draw.

:func:`scenario_trial` is the single campaign-contract entry point for
every registered scenario: given a trial ``rng`` and a frozen
:class:`~repro.scenarios.spec.ScenarioSpec`, it draws a fresh deployment,
measures ranges under the spec's noise model, selects anchors, runs the
configured localization algorithm, and returns scalar metrics.  Being a
module-level function whose only argument beyond ``rng`` is a frozen
dataclass, it pickles cleanly and fans out across the
:mod:`multiprocessing` workers of the one trial stream that fixed-count,
adaptive and sharded campaigns all run through.

A trial is a pipeline of named steps: deploy, measure (ranges, then
anchors), then one localize and one evaluate step per algorithm family
(:data:`_FAMILIES`).  A step returns its value or raises
:class:`TrialFailure`, whose class names why the trial cannot finish;
:func:`scenario_trial` is the one place that turns a failure into NaN
metrics and counts it as ``trial.failed.<class>``.

The draw order (deployment, then ranges, then anchors) is fixed and part
of the reproducibility contract: a scenario's trial stream is a pure
function of the spec and the trial's seed, so cached results stay valid.
"""

from __future__ import annotations

from typing import Dict, Tuple

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
from ..errors import DeploymentInfeasibleError, InsufficientDataError
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


class TrialFailure(Exception):
    """A trial step that cannot go on: *cls* names why (one of
    :data:`FAILURE_CLASSES`), and *partial* holds the metrics the trial
    still reports.  :func:`scenario_trial` turns it into the trial's
    metrics."""

    def __init__(self, cls: str, **partial: float) -> None:
        super().__init__(cls)
        self.cls = cls
        self.partial = partial


#: Why a trial returns NaN metrics, in pipeline order.
FAILURE_CLASSES = (
    "deployment-infeasible",
    "no-edges",
    "root-unmapped",
    "too-few-localized",
    "too-few-anchors",
    "no-unknowns",
    "none-localized",
)
# Built once: the sparse multilateration scenarios take the failure exit
# in most of their trials.
_FAILURE_COUNTERS = {cls: f"trial.failed.{cls}" for cls in FAILURE_CLASSES}
_NAN = float("nan")


def _deploy(spec: DeploymentSpec, rng) -> np.ndarray:
    """The deployment step: :func:`draw_deployment`, or a failure when
    the placement sampler gives up on the draw."""
    try:
        return draw_deployment(spec, rng)
    except DeploymentInfeasibleError:
        raise TrialFailure("deployment-infeasible") from None


def _measure(spec: ScenarioSpec, positions, rng) -> Tuple[EdgeList, np.ndarray]:
    """The ranging and anchor steps, in draw order.  A draw with no
    edge fails only after its anchors are selected, so every trial
    consumes the generator alike."""
    ranges = draw_ranges(spec.ranging, positions, rng)
    anchor_idx = select_anchors(spec.anchors, positions, rng)
    if len(ranges) == 0:
        raise TrialFailure("no-edges")
    return ranges, anchor_idx


def _localize_lss(spec: ScenarioSpec, positions, ranges, anchor_idx, rng):
    """Centralized anchor-free LSS (Section 4.3) over every node."""
    config = LssConfig(
        min_spacing_m=spec.solver.min_spacing_m,
        constraint_weight=spec.solver.constraint_weight,
        restarts=spec.solver.restarts,
        max_epochs=spec.solver.max_epochs,
    )
    return lss_localize(ranges, int(positions.shape[0]), config=config, rng=rng)


def _evaluate_lss(spec: ScenarioSpec, result, positions) -> Dict[str, float]:
    report = evaluate_localization(result.positions, positions, align=True)
    return {
        "fraction_localized": 1.0,
        "mean_error_m": report.average_error,
        "median_error_m": report.median_error,
        "final_objective": result.error,
        "epochs_run": float(result.epochs_run),
    }


def _localize_distributed(spec: ScenarioSpec, positions, ranges, anchor_idx, rng):
    """Distributed LSS (Section 4.3): local maps, stitch, flood.

    The root is the node nearest the deployment centroid (a stable,
    spec-independent choice mirroring the paper's central root).  A
    root without a local map fails the trial.
    """
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
        return distributed_localize(
            ranges, int(positions.shape[0]), root, config=config, rng=rng
        )
    except InsufficientDataError:
        raise TrialFailure("root-unmapped", n_local_maps=_NAN) from None


def _evaluate_distributed(spec: ScenarioSpec, result, positions) -> Dict[str, float]:
    n_localized = result.localized.sum()
    metrics = {
        "fraction_localized": float(n_localized) / float(positions.shape[0]),
        "n_local_maps": float(len(result.local_maps)),
    }
    if n_localized < 3:
        raise TrialFailure("too-few-localized", **metrics)
    report = evaluate_localization(
        result.positions, positions, localized_mask=result.localized, align=True
    )
    metrics["mean_error_m"] = report.average_error
    metrics["median_error_m"] = report.median_error
    return metrics


def _anchor_positions(positions, anchor_idx) -> Dict[int, np.ndarray]:
    return {int(i): positions[i] for i in anchor_idx}


def _localize_multilateration(spec: ScenarioSpec, positions, ranges, anchor_idx, rng):
    """Anchored iterative multilateration (Section 4.1)."""
    return localize_network(
        ranges, _anchor_positions(positions, anchor_idx), int(positions.shape[0])
    )


def _localize_dv_hop(spec: ScenarioSpec, positions, ranges, anchor_idx, rng):
    """The DV-hop baseline.  Fewer than three anchors, or no anchor
    reaching another, leaves it no hop length to calibrate."""
    try:
        return dv_hop_localize(
            ranges, _anchor_positions(positions, anchor_idx), int(positions.shape[0])
        )
    except InsufficientDataError:
        raise TrialFailure("too-few-anchors") from None


def _evaluate_anchored(spec: ScenarioSpec, result, positions) -> Dict[str, float]:
    """Scores the non-anchor nodes an anchored localizer placed."""
    extras = {}
    if spec.solver.algorithm == "multilateration":
        extras["average_anchors_per_node"] = result.average_anchors_per_node
    non_anchor = ~result.is_anchor
    n_unknown = non_anchor.sum()
    if n_unknown == 0:
        raise TrialFailure("no-unknowns", **extras)
    localized = result.localized & non_anchor
    fraction = float(localized.sum()) / float(n_unknown)
    report = evaluate_localization(result.positions[localized], positions[localized])
    if report.n_localized == 0:
        raise TrialFailure("none-localized", fraction_localized=fraction, **extras)
    return {
        "fraction_localized": fraction,
        "mean_error_m": report.average_error,
        "median_error_m": report.median_error,
        **extras,
    }


#: algorithm -> (localize step, evaluate step)
_FAMILIES = {
    "lss": (_localize_lss, _evaluate_lss),
    "distributed-lss": (_localize_distributed, _evaluate_distributed),
    "multilateration": (_localize_multilateration, _evaluate_anchored),
    "dv-hop": (_localize_dv_hop, _evaluate_anchored),
}


def scenario_trial(rng, *, spec: ScenarioSpec) -> Dict[str, float]:
    """One randomized trial of *spec*: deploy, range, localize, score.

    Returns at least ``fraction_localized`` / ``mean_error_m`` /
    ``median_error_m``, plus algorithm-specific extras.  A step that
    cannot go on raises :class:`TrialFailure`; this function is its one
    exit: it counts ``trial.failed.<cls>`` and returns those three as
    NaN, overlaid with the failure's partial metrics, so campaigns
    aggregate rather than crash.  ``docs/observability.md`` lists each
    class with the metrics it returns.
    """
    try:
        positions = _deploy(spec.deployment, rng)
        ranges, anchor_idx = _measure(spec, positions, rng)
        localize, evaluate = _FAMILIES[spec.solver.algorithm]
        result = localize(spec, positions, ranges, anchor_idx, rng)
        return evaluate(spec, result, positions)
    except TrialFailure as failure:
        telemetry.count(_FAILURE_COUNTERS[failure.cls])
        return {
            "fraction_localized": _NAN,
            "mean_error_m": _NAN,
            "median_error_m": _NAN,
            **failure.partial,
        }
