"""Stacked execution of heterogeneous local-map LSS problems.

The distributed localization pipeline (paper Section 4.3) runs one
small LSS minimization per node — its one-hop neighborhood in local
relative coordinates — and then stitches the resulting local maps with
rigid transforms.  The scalar reference
(:func:`repro.core.distributed._solve_local_maps_scalar`, a test
oracle) solves those neighborhoods one at a time; this module is the
production path: every local map of a refinement round is
padded into the ``(n_problems, max_nodes, 2)`` masked stacks of
:func:`repro.engine.batch.batch_lss_descend_padded`, and the engine's
one restart driver (``repro.engine.batch._lss_restarts``, the same
rounds centralized LSS runs) advances all problems through each
perturbation-restart round in one vectorized descent.  The caller
supplies each problem's starting
configuration: :func:`repro.core.distributed.build_local_maps` seeds
them with MDS-MAP, stacked by node count through
:func:`repro.core.mds.mds_map_stack` (bytewise the scalar
:func:`repro.core.mds.mds_map` seeds), and a problem without a seed
starts from a uniform random draw taken here.

Semantics per problem mirror :func:`repro.core.lss.lss_localize`'s
gradient descent: multiplicative step adaptation with heavy-ball
momentum, Gaussian perturbation restarts from the best configuration so
far, and the paper's soft minimum-spacing constraint over unmeasured
pairs.  Randomness is consumed from the supplied generator in
*problem-major* order (problem 0's initialization and all of its
restart perturbations are drawn before problem 1's, all before the
first descent), the same order the scalar loop consumes it, so a
batched run is deterministic given the
generator state.  Because the scalar oracle interleaves each map's
residual-trim refit draws with the next map's fit draws while the
batched path phases them (all fits, then all refits), the two paths see
different perturbation noise and agree to solver tolerance rather than
bit-for-bit; ``tests/test_distributed.py`` pins that agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .. import telemetry
from .._validation import ensure_rng
from ..errors import ValidationError
from .batch import _lss_restarts, _PaddedStack, batch_lss_error_padded

__all__ = ["LocalLssProblem", "LocalLssSolution", "solve_local_lss_stack"]


@dataclass(frozen=True)
class LocalLssProblem:
    """One local-map LSS problem in local node indices.

    Attributes
    ----------
    n_nodes : int
        Number of nodes in this neighborhood (local ids ``0..n-1``).
    edges : EdgeList
        Range measurements between local ids.
    initial : ndarray of shape (n_nodes, 2), optional
        Starting configuration (e.g. an MDS-MAP embedding); a random
        uniform draw is used when omitted.
    """

    n_nodes: int
    edges: "object"
    initial: Optional[np.ndarray] = None


@dataclass
class LocalLssSolution:
    """Solution of one stacked local-map problem.

    ``positions`` is the best configuration found (local relative
    coordinates, ``(n_nodes, 2)``); ``error`` the full objective
    including constraint terms; ``stress`` the measurement-only term;
    ``converged`` whether the final restart round hit its tolerance.
    """

    positions: np.ndarray
    error: float
    stress: float
    converged: bool


def solve_local_lss_stack(
    problems: Sequence[LocalLssProblem],
    *,
    config=None,
    rng=None,
) -> List[LocalLssSolution]:
    """Solve a batch of variable-size LSS problems in lockstep.

    Each problem keeps its own node count, edge list, soft-constraint
    set, and adaptive step-size trajectory; the batch is padded to the
    largest neighborhood with zero-weight edge slots and masked
    constraint slots (exact-zero contributions, see
    :mod:`repro.engine.batch`).  All problems advance through
    ``config.restarts`` perturbation rounds together; per round the
    whole stack runs one ``batch_lss_descend_padded`` call.

    Returns one :class:`LocalLssSolution` per problem, in order.
    """
    from ..core.lss import LssConfig, _constraint_pairs, _init_span

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

    # Problem-major RNG consumption (see module docstring): draw each
    # problem's initialization and restart perturbations before moving
    # to the next problem's.  Padding rows stay zero.
    max_nodes = max(sizes)
    best = np.zeros((n_problems, max_nodes, 2))
    noise = np.zeros((config.restarts - 1, n_problems, max_nodes, 2))
    for k, problem in enumerate(problems):
        n_nodes = sizes[k]
        if problem.initial is not None:
            init = np.asarray(problem.initial, dtype=float)
            if init.shape != (n_nodes, 2):
                raise ValidationError(
                    f"problem {k} initial must have shape ({n_nodes}, 2); "
                    f"got {init.shape}"
                )
            best[k, :n_nodes] = init
        else:
            span = _init_span(config, problem.edges.distances, n_nodes)
            best[k, :n_nodes] = rng.uniform(0.0, span, size=(n_nodes, 2))
        for draws in noise:
            draws[k, :n_nodes] = rng.normal(0.0, config.perturbation_m, size=(n_nodes, 2))

    # Pad the stack: zero-weight edge slots and masked constraint slots
    # contribute exact zeros, so each padded problem is numerically the
    # unpadded one.
    max_edges = max(len(p.edges) for p in problems)
    pairs = np.zeros((n_problems, max_edges, 2), dtype=np.int64)
    dists = np.zeros((n_problems, max_edges))
    weights = np.zeros((n_problems, max_edges))
    for k, problem in enumerate(problems):
        n_edges = len(problem.edges)
        pairs[k, :n_edges] = problem.edges.pairs
        dists[k, :n_edges] = problem.edges.distances
        weights[k, :n_edges] = problem.edges.weights

    constraint_pairs = None
    constraint_valid = None
    if config.min_spacing_m is not None:
        constraints = [
            _constraint_pairs(sizes[k], problems[k].edges.pairs) for k in range(n_problems)
        ]
        max_constraints = max(c.shape[0] for c in constraints)
        if max_constraints > 0:
            constraint_pairs = np.zeros(
                (n_problems, max_constraints, 2), dtype=np.int64
            )
            constraint_valid = np.zeros((n_problems, max_constraints), dtype=bool)
            for k, c in enumerate(constraints):
                constraint_pairs[k, : c.shape[0]] = c
                constraint_valid[k, : c.shape[0]] = True

    stack = _PaddedStack(pairs, dists, weights, constraint_pairs, constraint_valid)
    best_error = batch_lss_error_padded(
        best,
        pairs,
        dists,
        weights,
        constraint_pairs=constraint_pairs,
        constraint_valid=constraint_valid,
        min_spacing_m=config.min_spacing_m,
        constraint_weight=config.constraint_weight,
    )
    best, best_error, converged, _ = _lss_restarts(stack, best, best_error, noise, config)

    telemetry.count("engine.localmaps.stacks", 1)
    telemetry.count("engine.localmaps.problems", n_problems)
    telemetry.count("engine.localmaps.rounds", config.restarts)
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
