"""Reference perturbation-restart loops for the engine's one restart driver.

Centralized LSS, its multi-seed stack and the stacked local maps once
each ran their own copy of the paper's restart rule (Section 4.2: every
round starts from the best configuration so far, perturbed by Gaussian
noise).  :func:`lss_localize`, :func:`lss_localize_multistart` and
:func:`solve_local_lss_stack` are those three loops as they were, each
round descending through the production kernels
(``batch_lss_descend`` / ``batch_lss_descend_padded``) and drawing its
noise round by round.  Tests compare the production callers with them
byte for byte: every result field and the generator's end state.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro._validation import ensure_rng
from repro.core.lss import LssConfig, LssResult, _constraint_pairs, _setup, lss_error
from repro.engine.batch import (
    batch_lss_descend,
    batch_lss_descend_padded,
    batch_lss_error,
    batch_lss_error_padded,
)
from repro.engine.localmaps import LocalLssSolution
from repro.errors import ValidationError


def _stress(pts, edges) -> float:
    return lss_error(pts, edges, constraint_pairs=None, min_spacing_m=None, constraint_weight=0.0)


def lss_localize(
    measurements, n_nodes, *, config=None, initial=None, fixed_positions=None, rng=None
):
    """One configuration, one generator: a batch-of-one descent per round."""
    config = config if config is not None else LssConfig()
    rng = ensure_rng(rng)
    setup = _setup(measurements, n_nodes, config, initial, fixed_positions)
    edges, constraint_pairs = setup.edges, setup.constraint_pairs
    if setup.initial is not None:
        pts = setup.initial
    else:
        pts = rng.uniform(0.0, setup.span, size=(n_nodes, 2))
    setup.pin(pts)

    trace: List[float] = []
    boundaries: List[int] = []
    best_pts = pts
    best_error = lss_error(
        pts, edges, constraint_pairs=constraint_pairs,
        min_spacing_m=config.min_spacing_m, constraint_weight=config.constraint_weight,
    )
    converged = False
    for round_index in range(config.restarts):
        boundaries.append(len(trace))
        if round_index == 0:
            seed = best_pts
        else:
            seed = setup.pin(
                best_pts + rng.normal(0.0, config.perturbation_m, size=(n_nodes, 2))
            )
        out, errors, flags = batch_lss_descend(
            seed[None, :, :],
            edges,
            constraint_pairs,
            min_spacing_m=config.min_spacing_m,
            constraint_weight=config.constraint_weight,
            step_size=config.step_size,
            max_epochs=config.max_epochs,
            tolerance=config.tolerance,
            free_mask=setup.free_mask,
            traces=[trace],
        )
        out_pts, out_error, converged = out[0], float(errors[0]), bool(flags[0])
        if out_error < best_error:
            best_pts = out_pts
            best_error = out_error
    return LssResult(
        positions=np.asarray(best_pts, dtype=float),
        error=float(best_error),
        stress=float(_stress(best_pts, edges)),
        error_trace=np.asarray(trace, dtype=float),
        round_boundaries=boundaries,
        epochs_run=len(trace),
        converged=converged,
    )


def lss_localize_multistart(
    measurements, n_nodes, *, config=None, seeds, initial=None, fixed_positions=None
):
    """One configuration per seed, drawn round by round across the seeds."""
    config = config if config is not None else LssConfig()
    if len(seeds) == 0:
        raise ValidationError("seeds must contain at least one entry")
    rngs = [ensure_rng(seed) for seed in seeds]
    n_batch = len(rngs)
    setup = _setup(measurements, n_nodes, config, initial, fixed_positions)
    edges, constraint_pairs = setup.edges, setup.constraint_pairs

    pts = np.empty((n_batch, n_nodes, 2))
    if setup.initial is not None:
        pts[:] = setup.initial
    else:
        for b, rng in enumerate(rngs):
            pts[b] = rng.uniform(0.0, setup.span, size=(n_nodes, 2))
    setup.pin(pts)

    traces: List[List[float]] = [[] for _ in range(n_batch)]
    boundaries: List[List[int]] = [[] for _ in range(n_batch)]
    best_pts = pts.copy()
    best_error = batch_lss_error(
        pts, edges, constraint_pairs=constraint_pairs,
        min_spacing_m=config.min_spacing_m, constraint_weight=config.constraint_weight,
    )
    converged = np.zeros(n_batch, dtype=bool)
    for round_index in range(config.restarts):
        for b in range(n_batch):
            boundaries[b].append(len(traces[b]))
        if round_index == 0:
            seed_pts = best_pts.copy()
        else:
            seed_pts = np.empty_like(best_pts)
            for b, rng in enumerate(rngs):
                seed_pts[b] = best_pts[b] + rng.normal(
                    0.0, config.perturbation_m, size=(n_nodes, 2)
                )
            setup.pin(seed_pts)
        out_pts, out_error, converged = batch_lss_descend(
            seed_pts,
            edges,
            constraint_pairs,
            min_spacing_m=config.min_spacing_m,
            constraint_weight=config.constraint_weight,
            step_size=config.step_size,
            max_epochs=config.max_epochs,
            tolerance=config.tolerance,
            free_mask=setup.free_mask,
            traces=traces,
        )
        better = out_error < best_error
        best_pts = np.where(better[:, None, None], out_pts, best_pts)
        best_error = np.where(better, out_error, best_error)

    return [
        LssResult(
            positions=np.asarray(best_pts[b], dtype=float),
            error=float(best_error[b]),
            stress=float(_stress(best_pts[b], edges)),
            error_trace=np.asarray(traces[b], dtype=float),
            round_boundaries=boundaries[b],
            epochs_run=len(traces[b]),
            converged=bool(converged[b]),
        )
        for b in range(n_batch)
    ]


def solve_local_lss_stack(problems, *, config=None, rng=None):
    """Padded problems, drawn problem by problem from one generator."""
    config = config if config is not None else LssConfig()
    rng = ensure_rng(rng)
    n_problems = len(problems)
    if n_problems == 0:
        return []
    sizes = [int(p.n_nodes) for p in problems]
    for k, problem in enumerate(problems):
        if len(problem.edges) == 0:
            raise ValidationError(f"problem {k} has no measurements")
        if np.any(problem.edges.pairs < 0) or np.any(problem.edges.pairs >= sizes[k]):
            raise ValidationError(f"problem {k} has edge indices outside [0, n_nodes)")
    constraints = [None] * n_problems
    if config.min_spacing_m is not None:
        constraints = [
            _constraint_pairs(sizes[k], problems[k].edges.pairs) for k in range(n_problems)
        ]

    initials, perturbations = [], []
    for k, problem in enumerate(problems):
        if problem.initial is not None:
            init = np.asarray(problem.initial, dtype=float)
            if init.shape != (sizes[k], 2):
                raise ValidationError(
                    f"problem {k} initial must have shape ({sizes[k]}, 2); got {init.shape}"
                )
            init = init.copy()
        else:
            span = config.init_span_m
            if span is None:
                span = max(1.0, float(np.median(problem.edges.distances)) * math.sqrt(sizes[k]))
            init = rng.uniform(0.0, span, size=(sizes[k], 2))
        initials.append(init)
        perturbations.append(
            [
                rng.normal(0.0, config.perturbation_m, size=(sizes[k], 2))
                for _ in range(config.restarts - 1)
            ]
        )

    max_nodes = max(sizes)
    max_edges = max(len(p.edges) for p in problems)
    pairs = np.zeros((n_problems, max_edges, 2), dtype=np.int64)
    dists = np.zeros((n_problems, max_edges))
    weights = np.zeros((n_problems, max_edges))
    for k, problem in enumerate(problems):
        n_edges = len(problem.edges)
        pairs[k, :n_edges] = problem.edges.pairs
        dists[k, :n_edges] = problem.edges.distances
        weights[k, :n_edges] = problem.edges.weights
    constraint_pairs = constraint_valid = None
    if config.min_spacing_m is not None:
        max_constraints = max(c.shape[0] for c in constraints)
        if max_constraints > 0:
            constraint_pairs = np.zeros((n_problems, max_constraints, 2), dtype=np.int64)
            constraint_valid = np.zeros((n_problems, max_constraints), dtype=bool)
            for k, c in enumerate(constraints):
                constraint_pairs[k, : c.shape[0]] = c
                constraint_valid[k, : c.shape[0]] = True
    kwargs = dict(
        constraint_pairs=constraint_pairs,
        constraint_valid=constraint_valid,
        min_spacing_m=config.min_spacing_m,
        constraint_weight=config.constraint_weight,
    )

    best = np.zeros((n_problems, max_nodes, 2))
    for k, init in enumerate(initials):
        best[k, : sizes[k]] = init
    best_error = batch_lss_error_padded(best, pairs, dists, weights, **kwargs)
    converged = np.zeros(n_problems, dtype=bool)
    for round_index in range(config.restarts):
        seed_pts = best.copy()
        if round_index > 0:
            for k in range(n_problems):
                seed_pts[k, : sizes[k]] += perturbations[k][round_index - 1]
        out_pts, out_error, converged = batch_lss_descend_padded(
            seed_pts, pairs, dists, weights,
            step_size=config.step_size, max_epochs=config.max_epochs,
            tolerance=config.tolerance, **kwargs,
        )
        better = out_error < best_error
        best = np.where(better[:, None, None], out_pts, best)
        best_error = np.where(better, out_error, best_error)

    stress = batch_lss_error_padded(best, pairs, dists, weights)
    return [
        LocalLssSolution(
            positions=best[k, : sizes[k]].copy(),
            error=float(best_error[k]),
            stress=float(stress[k]),
            converged=bool(converged[k]),
        )
        for k in range(n_problems)
    ]
