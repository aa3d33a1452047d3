"""Scalar reference solvers that only the test suite runs.

:func:`solve_batch_scalar` is the per-node reference of
``repro.engine.batch.solve_multilateration_batch``: a
:func:`~repro.core.multilateration.multilaterate` loop.  Tests
substitute it (``mock.patch.object(batch,
"solve_multilateration_batch", solve_batch_scalar)``) to run
``localize_network`` and the APS baselines on the reference path.

:func:`descend_scalar` is one LSS gradient-descent round on one
configuration, the implementation the engine's batched descent
replaced.  :func:`per_configuration` turns such a round into the
restart driver's per-round seam (``repro.engine.batch._lss_round``),
solving each configuration of a shared-edge stack in turn, and
:data:`scalar_round` is that seam for :func:`descend_scalar`.  Tests
substitute it (``mock.patch.object(batch, "_lss_round", scalar_round)``)
to run centralized LSS on the reference path end to end.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.lss import lss_error, lss_gradient
from repro.core.multilateration import multilaterate
from repro.errors import InsufficientDataError


def solve_batch_scalar(
    anchor_sets: Sequence[np.ndarray],
    dist_sets: Sequence[np.ndarray],
    weight_sets: Sequence[np.ndarray],
    *,
    min_anchors: int = 3,
    consistency_check: bool = True,
    cluster_radius_m: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node reference of ``engine.batch.solve_multilateration_batch``.

    Loops :func:`multilaterate` over the problems and returns the same
    ``(positions, solved, residuals)`` triple, nan where a problem is
    unsolvable.  The descent runs at :func:`multilaterate`'s step size,
    iteration cap and tolerance, which are the engine's defaults and the
    only ones its callers use.
    """
    n_problems = len(anchor_sets)
    positions = np.full((n_problems, 2), np.nan)
    residuals = np.full(n_problems, np.nan)
    solved = np.zeros(n_problems, dtype=bool)
    for b, (anchors, dists, weights) in enumerate(zip(anchor_sets, dist_sets, weight_sets)):
        try:
            result = multilaterate(
                anchors,
                dists,
                weights=weights,
                consistency_check=consistency_check,
                cluster_radius_m=cluster_radius_m,
                min_anchors=min_anchors,
            )
        except InsufficientDataError:
            continue
        positions[b] = result.position
        residuals[b] = result.residual
        solved[b] = True
    return positions, solved, residuals


def descend_scalar(
    pts: np.ndarray,
    edges,
    constraint_pairs: Optional[np.ndarray],
    config,
    trace: List[float],
    free_mask: np.ndarray,
) -> Tuple[np.ndarray, float, bool]:
    """One gradient-descent round from *pts*; returns (best, error, converged).

    :func:`repro.engine.batch.batch_lss_descend` reproduces it byte for
    byte per configuration: points, error, converged flag and the
    per-epoch errors appended to *trace*.
    """
    kwargs = dict(
        constraint_pairs=constraint_pairs,
        min_spacing_m=config.min_spacing_m,
        constraint_weight=config.constraint_weight,
    )
    current = lss_error(pts, edges, **kwargs)
    alpha = config.step_size
    momentum = 0.9
    velocity = np.zeros_like(pts)
    patience = 50
    stall = 0
    converged = False
    for _ in range(config.max_epochs):
        grad = lss_gradient(pts, edges, **kwargs)
        grad[~free_mask] = 0.0
        velocity = momentum * velocity - alpha * grad
        candidate = pts + velocity
        value = lss_error(candidate, edges, **kwargs)
        if value < current:
            improvement = (current - value) / max(current, 1e-12)
            pts = candidate
            current = value
            alpha *= 1.05
            stall = stall + 1 if improvement < config.tolerance else 0
        else:
            # Overshoot: damp the step and kill the momentum so the
            # next step is a plain (smaller) gradient step.
            alpha *= 0.5
            velocity[:] = 0.0
            stall += 1
            if alpha < 1e-14:
                converged = True
                trace.append(current)
                break
        trace.append(current)
        if stall >= patience:
            converged = True
            break
    return pts, current, converged


def per_configuration(descend: Callable) -> Callable:
    """The per-round seam running *descend* on each configuration.

    *descend* takes ``(pts, edges, constraint_pairs, config, trace,
    free_mask)`` and returns ``(pts, error, converged)``, like
    :func:`descend_scalar`.  The seam gets the driver's shared-edge
    problem, the ``(B, n, 2)`` seed stack, the config and one trace per
    configuration, and returns stacked points, errors and flags.
    """

    def round_(problem, seeds, config, traces):
        runs = [
            descend(
                seed.copy(), problem.edges, problem.constraint_pairs, config, trace,
                problem.free_mask,
            )
            for seed, trace in zip(seeds, traces)
        ]
        pts, errors, converged = zip(*runs)
        return np.stack(pts), np.array(errors, dtype=float), np.array(converged, dtype=bool)

    return round_


#: The restart driver's per-round seam on the scalar reference.
scalar_round = per_configuration(descend_scalar)
